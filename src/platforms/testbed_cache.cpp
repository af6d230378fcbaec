#include "platforms/testbed_cache.hpp"

#include "obs/counters.hpp"
#include "obs/live.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

namespace tc3i::platforms {

namespace {

namespace fs = std::filesystem;
namespace threat = c3i::threat;
namespace terrain = c3i::terrain;

// Bump when the serialized layout or the set of cached fields changes.
constexpr std::uint32_t kFormatVersion = 1;
constexpr char kMagic[8] = {'T', 'C', '3', 'I', 'T', 'B', 'C', '\0'};

// --- fingerprint (FNV-1a over every scenario field) --------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) u64(static_cast<unsigned char>(c));
  }
};

std::uint64_t fingerprint(const TestbedScenarios& s) {
  Fnv f;
  f.u64(kFormatVersion);
  const auto threat_scenario = [&f](const threat::Scenario& sc) {
    f.str(sc.name);
    f.f64(sc.dt);
    f.u64(sc.threats.size());
    for (const auto& t : sc.threats) {
      f.f64(t.launch_pos.x), f.f64(t.launch_pos.y), f.f64(t.launch_pos.z);
      f.f64(t.impact_pos.x), f.f64(t.impact_pos.y), f.f64(t.impact_pos.z);
      f.f64(t.launch_time), f.f64(t.flight_time);
      f.f64(t.apex_altitude), f.f64(t.detect_time);
    }
    f.u64(sc.weapons.size());
    for (const auto& w : sc.weapons) {
      f.f64(w.pos.x), f.f64(w.pos.y), f.f64(w.pos.z);
      f.f64(w.interceptor_speed), f.f64(w.max_range);
      f.f64(w.min_intercept_alt), f.f64(w.max_intercept_alt);
      f.f64(w.reaction_time);
    }
  };
  const auto geometry = [&f](const terrain::GeometryScenario& g) {
    f.str(g.name);
    f.i64(g.x_size), f.i64(g.y_size);
    f.u64(g.threats.size());
    for (const auto& t : g.threats) {
      f.i64(t.x), f.i64(t.y);
      f.f64(t.sensor_height);
      f.i64(t.radius);
    }
  };
  f.u64(s.threat.size());
  for (const auto& sc : s.threat) threat_scenario(sc);
  f.u64(s.terrain.size());
  for (const auto& g : s.terrain) geometry(g);
  threat_scenario(s.threat_scaled);
  geometry(s.terrain_scaled);
  return f.h;
}

// --- flat binary serialization ----------------------------------------------

struct Writer {
  std::vector<std::uint8_t> bytes;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
  void u32v(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (const std::uint32_t x : v) u64(x);
  }
};

struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok = true;
  std::uint64_t u64() {
    if (end - p < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    return v;
  }
  bool u32v(std::vector<std::uint32_t>& out, std::uint64_t max_len) {
    const std::uint64_t n = u64();
    if (!ok || n > max_len) return ok = false;
    out.resize(n);
    for (auto& x : out) x = static_cast<std::uint32_t>(u64());
    return ok;
  }
};

void write_pair_profile(Writer& w, const threat::PairProfile& p) {
  w.u64(p.num_threats);
  w.u64(p.num_weapons);
  w.u32v(p.steps);
  w.u32v(p.intervals_found);
}

bool read_pair_profile(Reader& r, threat::PairProfile& p) {
  p.num_threats = r.u64();
  p.num_weapons = r.u64();
  return r.u32v(p.steps, 1u << 26) && r.u32v(p.intervals_found, 1u << 26);
}

void write_terrain_profile(Writer& w, const terrain::TerrainProfile& p) {
  w.u64(static_cast<std::uint64_t>(p.x_size));
  w.u64(static_cast<std::uint64_t>(p.y_size));
  w.u64(p.threats.size());
  for (const auto& t : p.threats) {
    w.u64(static_cast<std::uint64_t>(t.region.x0));
    w.u64(static_cast<std::uint64_t>(t.region.y0));
    w.u64(static_cast<std::uint64_t>(t.region.x1));
    w.u64(static_cast<std::uint64_t>(t.region.y1));
    w.u64(t.kernel_cells);
    w.u64(t.simple_cells);
    w.u32v(t.ring_sizes);
  }
}

bool read_terrain_profile(Reader& r, terrain::TerrainProfile& p) {
  p.x_size = static_cast<int>(r.u64());
  p.y_size = static_cast<int>(r.u64());
  const std::uint64_t n = r.u64();
  if (!r.ok || n > (1u << 22)) return false;
  p.threats.resize(n);
  for (auto& t : p.threats) {
    t.region.x0 = static_cast<int>(r.u64());
    t.region.y0 = static_cast<int>(r.u64());
    t.region.x1 = static_cast<int>(r.u64());
    t.region.y1 = static_cast<int>(r.u64());
    t.kernel_cells = r.u64();
    t.simple_cells = r.u64();
    if (!r.u32v(t.ring_sizes, 1u << 22)) return false;
  }
  return r.ok;
}

// --- cache file I/O ----------------------------------------------------------

/// Empty when caching is disabled via TC3I_TESTBED_CACHE=0/off.
fs::path cache_file_path(std::uint64_t fp) {
  fs::path dir;
  if (const char* env = std::getenv("TC3I_TESTBED_CACHE")) {
    const std::string v = env;
    if (v.empty() || v == "0" || v == "off") return {};
    dir = v;
  } else {
    std::error_code ec;
    dir = fs::temp_directory_path(ec);
    if (ec) return {};
  }
  char name[64];
  std::snprintf(name, sizeof(name), "tc3i_testbed_%016llx.bin",
                static_cast<unsigned long long>(fp));
  return dir / name;
}

bool try_load(const fs::path& path, std::uint64_t fp, TestbedProfiles& out) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes;
  bool ok = size > 0;
  if (ok) {
    bytes.resize(static_cast<std::size_t>(size));
    ok = std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  }
  std::fclose(f);
  if (!ok || bytes.size() < sizeof(kMagic)) return false;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) return false;

  Reader r{bytes.data() + sizeof(kMagic), bytes.data() + bytes.size()};
  if (r.u64() != kFormatVersion || r.u64() != fp || !r.ok) return false;
  const std::uint64_t num_threat = r.u64();
  if (!r.ok || num_threat > 64) return false;
  out.threat.resize(num_threat);
  for (auto& p : out.threat)
    if (!read_pair_profile(r, p)) return false;
  const std::uint64_t num_terrain = r.u64();
  if (!r.ok || num_terrain > 64) return false;
  out.terrain.resize(num_terrain);
  for (auto& p : out.terrain)
    if (!read_terrain_profile(r, p)) return false;
  if (!read_pair_profile(r, out.threat_scaled)) return false;
  if (!read_terrain_profile(r, out.terrain_scaled)) return false;
  return r.ok && r.p == r.end;
}

// GCC 12 misattributes the vector growth inside insert() as a write past
// the old allocation when inlining under sanitizer instrumentation
// (spurious -Wstringop-overflow; the insert is into a freshly grown
// buffer). Scoped to this function only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
void try_save(const fs::path& path, std::uint64_t fp,
              const TestbedProfiles& profiles) {
  Writer w;
  w.bytes.insert(w.bytes.end(), kMagic, kMagic + sizeof(kMagic));
  w.u64(kFormatVersion);
  w.u64(fp);
  w.u64(profiles.threat.size());
  for (const auto& p : profiles.threat) write_pair_profile(w, p);
  w.u64(profiles.terrain.size());
  for (const auto& p : profiles.terrain) write_terrain_profile(w, p);
  write_pair_profile(w, profiles.threat_scaled);
  write_terrain_profile(w, profiles.terrain_scaled);

  // Write to a temp name then rename, so a concurrent reader never sees a
  // partial file (rename within one directory is atomic on POSIX).
  const fs::path tmp = path.string() + ".tmp";
  std::FILE* f = std::fopen(tmp.string().c_str(), "wb");
  if (f == nullptr) return;
  bool ok = std::fwrite(w.bytes.data(), 1, w.bytes.size(), f) ==
            w.bytes.size();
  // fclose flushes the buffered bytes, so a full disk can fail here: only a
  // checked close may be renamed into place.
  ok = std::fclose(f) == 0 && ok;
  std::error_code ec;
  if (ok) {
    fs::rename(tmp, path, ec);
  }
  if (!ok || ec) fs::remove(tmp, ec);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace

Testbed load_or_build_testbed() {
  const TestbedScenarios scenarios = testbed_scenarios();
  const std::uint64_t fp = fingerprint(scenarios);
  const fs::path path = cache_file_path(fp);
  // Hit/miss counters feed the SweepReport host section: a sweep that
  // suddenly spends seconds in kernel profiling shows up as misses there
  // instead of as an unexplained wall-time regression. A disabled cache
  // counts as a miss (the profiles are recomputed either way).
  // The live bus keeps its own hit/miss tally: mid-sweep the default
  // registry is shadowed by per-point scoped registries, so it cannot be
  // read live.
  obs::LiveBus* bus = obs::live_bus();
  obs::CounterRegistry& reg = obs::default_registry();
  if (path.empty()) {
    reg.counter("testbed.cache.miss").add();
    if (bus != nullptr) bus->record_cache(false);
    return assemble_testbed(profile_testbed_kernels(scenarios));
  }

  TestbedProfiles profiles;
  if (try_load(path, fp, profiles)) {
    reg.counter("testbed.cache.hit").add();
    if (bus != nullptr) bus->record_cache(true);
    return assemble_testbed(std::move(profiles));
  }

  reg.counter("testbed.cache.miss").add();
  if (bus != nullptr) bus->record_cache(false);
  profiles = profile_testbed_kernels(scenarios);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  try_save(path, fp, profiles);
  return assemble_testbed(std::move(profiles));
}

}  // namespace tc3i::platforms
