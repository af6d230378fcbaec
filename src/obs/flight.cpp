#include "obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "obs/live.hpp"

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define TC3I_FLIGHT_HAVE_BACKTRACE 1
#endif
#endif

namespace tc3i::obs::flight {
namespace {

constexpr std::size_t kLabelLen = 48;
constexpr std::size_t kPathLen = 512;
constexpr std::size_t kBenchLen = 128;

/// One ring slot: four relaxed-atomic words, so a dump racing a writer
/// reads a torn event at worst, never undefined behavior. kw packs
/// (kind << 32) | ring_index.
struct Slot {
  std::atomic<std::uint64_t> t{0};
  std::atomic<std::uint64_t> kw{0};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
};

struct Ring {
  Slot slots[kRingCapacity];
  /// Total events ever written here; the live window is the trailing
  /// min(head, kRingCapacity) slots. fetch_add keeps the overflow ring
  /// (shared past kMaxRings threads) safe under multiple writers.
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> owner{0};  ///< owner serial, 0 = never owned
};

struct Global {
  Ring rings[kMaxRings];
  std::atomic<std::uint32_t> rings_used{0};
  std::atomic<std::uint64_t> owner_serial{0};
  std::atomic<bool> armed{false};  ///< rings record; handlers installed
  std::uint64_t anchor_ns = 0;

  // Label table: entries are fully written (NUL-terminated) before the
  // count is store-released, so readers — including the signal path —
  // never need the mutex.
  char labels[kMaxLabels][kLabelLen] = {};
  std::atomic<std::uint32_t> label_count{0};

  std::mutex reg_mu;  ///< ring free-list + label writers
  std::uint32_t free_list[kMaxRings] = {};
  std::uint32_t free_count = 0;

  std::mutex cfg_mu;  ///< bench, dump paths, signal install state
  std::atomic<bool> watchdog_dumped{false};

  // The bench name and the dump paths live in fixed buffers so signal
  // handlers never touch std::string.
  char bench[kBenchLen] = {};
  char path[kPathLen] = {};        ///< watchdog and SIGUSR1 dump target
  char crash_path[kPathLen] = {};  ///< fatal-signal dump target
  std::atomic<int> crash_fd{-1};   ///< pre-opened by arm()
  std::atomic<bool> crashed{false};
  struct sigaction old_segv = {}, old_abrt = {}, old_bus = {}, old_usr1 = {};

  Global() {
    anchor_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

Global& g() {
  static Global global;
  return global;
}

std::uint64_t now_ns() {
  const auto t = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
  return static_cast<std::uint64_t>(t) - g().anchor_ns;
}

void write_event(Ring& r, std::uint32_t ring_idx, std::uint64_t t,
                 EventKind kind, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t i =
      r.head.fetch_add(1, std::memory_order_relaxed);
  Slot& s = r.slots[i & (kRingCapacity - 1)];
  s.t.store(t, std::memory_order_relaxed);
  s.kw.store((static_cast<std::uint64_t>(kind) << 32) | ring_idx,
             std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
}

/// Per-thread ring claim. Slots are recycled through a free list when
/// threads exit (sweep pools are created per sweep), so a long-lived
/// process stays within kMaxRings rings; ring contents survive their
/// owner, keeping evidence from finished workers in the dump.
struct RingHandle {
  Ring* ring = nullptr;
  std::uint32_t index = 0;
  bool owned = false;  ///< false for the shared overflow ring

  ~RingHandle() {
    if (ring == nullptr || !owned) return;
    Global& G = g();
    std::lock_guard<std::mutex> lock(G.reg_mu);
    G.free_list[G.free_count++] = index;
  }
};

thread_local RingHandle t_ring;

Ring& ring_for_thread(std::uint32_t* index_out) {
  if (t_ring.ring != nullptr) {
    *index_out = t_ring.index;
    return *t_ring.ring;
  }
  Global& G = g();
  {
    std::lock_guard<std::mutex> lock(G.reg_mu);
    if (G.free_count > 0) {
      t_ring.index = G.free_list[--G.free_count];
      t_ring.owned = true;
    } else {
      const std::uint32_t used = G.rings_used.load(std::memory_order_relaxed);
      if (used < kMaxRings) {
        t_ring.index = used;
        t_ring.owned = true;
        G.rings_used.store(used + 1, std::memory_order_release);
      } else {
        t_ring.index = kMaxRings - 1;  // shared overflow ring
        t_ring.owned = false;
      }
    }
  }
  t_ring.ring = &G.rings[t_ring.index];
  const std::uint64_t serial =
      G.owner_serial.fetch_add(1, std::memory_order_relaxed) + 1;
  t_ring.ring->owner.store(serial, std::memory_order_relaxed);
  write_event(*t_ring.ring, t_ring.index, now_ns(), EventKind::kThreadAttach,
              serial, 0);
  *index_out = t_ring.index;
  return *t_ring.ring;
}

// --- the one dump serializer (write(2) only, no allocation) ---

/// An fd sink that remembers whether every write landed. Only write(2)
/// and integer formatting, so it is usable from a signal handler.
struct FdOut {
  int fd = -1;
  bool ok = true;

  void put(const char* s, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(fd, s, n);
      if (w <= 0) {
        if (w < 0 && errno == EINTR) continue;
        ok = false;
        return;
      }
      s += w;
      n -= static_cast<std::size_t>(w);
    }
  }
  void put(const char* s) { put(s, std::strlen(s)); }

  void put_u64(std::uint64_t v) {
    char buf[24];
    char* p = buf + sizeof(buf);
    do {
      *--p = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    put(p, static_cast<std::size_t>(buf + sizeof(buf) - p));
  }

  /// ns as a decimal seconds literal ("1.234567890") with integer math only.
  void put_seconds(std::uint64_t ns) {
    put_u64(ns / 1'000'000'000);
    char frac[11] = ".000000000";
    std::uint64_t rem = ns % 1'000'000'000;
    for (int i = 9; i >= 1; --i) {
      frac[i] = static_cast<char>('0' + rem % 10);
      rem /= 10;
    }
    put(frac, 10);
  }

  void put_hex(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    char buf[18];
    char* p = buf + sizeof(buf);
    do {
      *--p = digits[v & 0xF];
      v >>= 4;
    } while (v != 0);
    *--p = 'x';
    *--p = '0';
    put(p, static_cast<std::size_t>(buf + sizeof(buf) - p));
  }

  /// A JSON string literal. Labels, bench names and reasons come from
  /// trusted call sites; any byte that would need escaping is dropped.
  void put_string(const char* s) {
    put("\"", 1);
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\' || c < 0x20) continue;
      put(s, 1);
    }
    put("\"", 1);
  }
};

/// The trigger-specific members of a dump ("trigger", optional
/// "live_status", "anomalies"), each written with a leading comma.
using DumpMembers = void (*)(FdOut& out, const void* ctx);

/// The one flight_dump (schema v1) serializer: the header fields, the
/// caller's trigger members, then the label table and every ring. It
/// makes no allocation, takes no lock and uses no stdio, so every trigger
/// calls it: the watchdog and dump() with members pre-rendered by
/// JsonWriter, SIGUSR1 and the fatal-signal handlers with members written
/// in place. Async-signal-safe whenever `members` is.
void write_dump(FdOut& out, const char* reason, const char* bench,
                DumpMembers members, const void* ctx) {
  Global& G = g();
  out.put("{\"kind\":\"flight_dump\",\"schema_version\":1,\"reason\":");
  out.put_string(reason);
  out.put(",\"bench\":");
  out.put_string(bench);
  out.put(",\"at_seconds\":");
  out.put_seconds(now_ns());
  out.put(",\"ring_capacity\":");
  out.put_u64(kRingCapacity);
  members(out, ctx);
  out.put(",\"labels\":[");
  const std::uint32_t labels = G.label_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < labels; ++i) {
    if (i > 0) out.put(",");
    out.put_string(G.labels[i]);
  }
  out.put("],\"rings\":[");
  const std::uint32_t used = G.rings_used.load(std::memory_order_acquire);
  bool first_ring = true;
  for (std::uint32_t r = 0; r < used && r < kMaxRings; ++r) {
    const Ring& ring = G.rings[r];
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    if (head == 0) continue;
    if (!first_ring) out.put(",");
    first_ring = false;
    const std::uint64_t count = head < kRingCapacity ? head : kRingCapacity;
    out.put("{\"ring\":");
    out.put_u64(r);
    out.put(",\"owner\":");
    out.put_u64(ring.owner.load(std::memory_order_relaxed));
    out.put(",\"events_total\":");
    out.put_u64(head);
    out.put(",\"dropped\":");
    out.put_u64(head - count);
    out.put(",\"events\":[");
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t idx = (head - count + i) & (kRingCapacity - 1);
      const Slot& s = ring.slots[idx];
      const std::uint64_t kw = s.kw.load(std::memory_order_relaxed);
      if (i > 0) out.put(",");
      out.put("{\"t_ns\":");
      out.put_u64(s.t.load(std::memory_order_relaxed));
      out.put(",\"kind\":\"");
      out.put(event_kind_name(static_cast<EventKind>(kw >> 32)));
      out.put("\",\"a\":");
      out.put_u64(s.a.load(std::memory_order_relaxed));
      out.put(",\"b\":");
      out.put_u64(s.b.load(std::memory_order_relaxed));
      out.put("}");
    }
    out.put("]}");
  }
  out.put("]}\n");
}

/// "signal:<NAME>", the dump reason of a signal-triggered dump; the bare
/// signal name starts after the 7-byte "signal:" prefix.
const char* signal_reason(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "signal:SIGSEGV";
    case SIGABRT:
      return "signal:SIGABRT";
    case SIGBUS:
      return "signal:SIGBUS";
    case SIGUSR1:
      return "signal:SIGUSR1";
    default:
      return "signal:SIG?";
  }
}

const char* signal_name(int sig) { return signal_reason(sig) + 7; }

struct SignalTrigger {
  int sig = 0;
  void* const* frames = nullptr;  ///< backtrace (may be empty)
  int frame_count = 0;
};

/// Signal-dump members, written in place: the signal trigger with its
/// backtrace, and an empty anomalies list (the bus mutex is off limits in
/// a handler, so live_status is omitted).
void put_signal_members(FdOut& out, const void* ctx) {
  const auto& trig = *static_cast<const SignalTrigger*>(ctx);
  out.put(",\"trigger\":{\"reason\":\"signal\",\"signal\":");
  out.put_u64(static_cast<std::uint64_t>(trig.sig));
  out.put(",\"name\":\"");
  out.put(signal_name(trig.sig));
  out.put("\",\"backtrace\":[");
  for (int i = 0; i < trig.frame_count; ++i) {
    if (i > 0) out.put(",");
    out.put("\"", 1);
    out.put_hex(reinterpret_cast<std::uint64_t>(trig.frames[i]));
    out.put("\"", 1);
  }
  out.put("]},\"anomalies\":[]");
}

void write_signal_dump(int fd, int sig, void* const* frames,
                       int frame_count) {
  FdOut out{fd};
  const SignalTrigger trig{sig, frames, frame_count};
  write_dump(out, signal_reason(sig), g().bench, put_signal_members, &trig);
}

void fatal_handler(int sig) {
  Global& G = g();
  if (G.crashed.exchange(true)) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
    return;
  }
  void* frames[64];
  int frame_count = 0;
#if defined(TC3I_FLIGHT_HAVE_BACKTRACE)
  frame_count = ::backtrace(frames, 64);
#endif
  const int fd = G.crash_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    write_signal_dump(fd, sig, frames, frame_count);
    ::fsync(fd);
    FdOut err{2};
    err.put("[obs] flight crash dump: ");
    err.put(G.crash_path);
    err.put(" (");
    err.put(signal_name(sig));
    err.put(")\n");
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void usr1_handler(int) {
  Global& G = g();
  if (G.path[0] == '\0') return;
  const int fd =
      ::open(G.path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return;
  write_signal_dump(fd, SIGUSR1, nullptr, 0);
  ::close(fd);
}

void disarm_locked(Global& G) {
  if (!G.armed.exchange(false)) return;
  ::sigaction(SIGSEGV, &G.old_segv, nullptr);
  ::sigaction(SIGABRT, &G.old_abrt, nullptr);
  ::sigaction(SIGBUS, &G.old_bus, nullptr);
  ::sigaction(SIGUSR1, &G.old_usr1, nullptr);
  const int fd = G.crash_fd.exchange(-1);
  if (fd >= 0) ::close(fd);
  // A clean run leaves an empty pre-opened crash file behind; remove it.
  if (!G.crashed.load() && G.crash_path[0] != '\0') {
    std::ifstream probe(G.crash_path, std::ios::binary | std::ios::ate);
    if (probe.is_open() && probe.tellg() == std::streampos(0)) {
      probe.close();
      std::remove(G.crash_path);
    }
  }
  G.path[0] = '\0';
  G.crash_path[0] = '\0';
}

/// Renders the watchdog / programmatic dump members with JsonWriter: the
/// trigger (cross-linking the first anomaly when a status rode along),
/// the embedded live status, and the anomaly list.
std::string render_members(const std::string& reason,
                           const LiveStatus* status) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("trigger");
  w.begin_object();
  w.field("reason", reason);
  if (status != nullptr && !status->anomalies.empty()) {
    const LiveAnomaly& a = status->anomalies.front();
    w.key("anomaly");
    w.begin_object();
    w.field("kind", a.kind);
    w.field("worker", static_cast<std::uint64_t>(a.worker));
    if (a.point != LiveBus::kNoPoint) w.field("point", a.point);
    w.field("at_seconds", a.at_seconds);
    w.field("observed_seconds", a.observed_seconds);
    w.field("threshold_seconds", a.threshold_seconds);
    w.end_object();
  }
  w.end_object();
  if (status != nullptr) {
    w.key("live_status");
    w.begin_object();
    w.field("version", status->version);
    w.field("at_seconds", status->at_seconds);
    w.field("phase", status->phase);
    w.key("points");
    w.begin_object();
    w.field("total", status->points_total);
    w.field("done", status->points_done);
    w.end_object();
    w.field("throughput_points_per_sec", status->throughput_points_per_sec);
    w.field("eta_seconds", status->eta_seconds);
    w.field("median_point_seconds", status->median_point_seconds);
    w.field("workers", static_cast<std::uint64_t>(status->workers.size()));
    w.end_object();
  }
  w.key("anomalies");
  write_anomalies_json(w, status != nullptr ? status->anomalies
                                            : std::vector<LiveAnomaly>{});
  w.end_object();
  // Splice the object's members into the dump: "{m1,m2}" -> ",m1,m2".
  std::string members = os.str();
  members.front() = ',';
  members.pop_back();
  return members;
}

void put_rendered_members(FdOut& out, const void* ctx) {
  const auto& members = *static_cast<const std::string*>(ctx);
  out.put(members.data(), members.size());
}

bool dump_impl(const std::string& path, const std::string& reason,
               const LiveStatus* status, std::string* error) {
  const std::string members = render_members(reason, status);
  Global& G = g();
  char bench[kBenchLen];
  {
    std::lock_guard<std::mutex> lock(G.cfg_mu);
    std::memcpy(bench, G.bench, kBenchLen);
  }
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + tmp;
    return false;
  }
  FdOut out{fd};
  write_dump(out, reason.c_str(), bench, put_rendered_members, &members);
  if (::close(fd) != 0 || !out.ok) {
    if (error != nullptr) *error = "write failed for " + tmp;
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "rename to " + path + " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kThreadAttach:
      return "thread_attach";
    case EventKind::kPhase:
      return "phase";
    case EventKind::kSweepBegin:
      return "sweep_begin";
    case EventKind::kPointBegin:
      return "point_begin";
    case EventKind::kPointEnd:
      return "point_end";
    case EventKind::kCacheHit:
      return "cache_hit";
    case EventKind::kCacheMiss:
      return "cache_miss";
    case EventKind::kAnomaly:
      return "anomaly";
  }
  return "unknown";
}

void emit(EventKind kind, std::uint64_t a, std::uint64_t b) noexcept {
  if (!g().armed.load(std::memory_order_relaxed)) return;
  std::uint32_t index = 0;
  Ring& r = ring_for_thread(&index);
  write_event(r, index, now_ns(), kind, a, b);
}

std::uint32_t intern(const std::string& label) {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.reg_mu);
  const std::uint32_t n = G.label_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (label == G.labels[i]) return i;
  }
  if (n >= kMaxLabels) return kMaxLabels - 1;
  if (n == kMaxLabels - 1) {
    std::snprintf(G.labels[n], kLabelLen, "<overflow>");
  } else {
    std::snprintf(G.labels[n], kLabelLen, "%s", label.c_str());
  }
  G.label_count.store(n + 1, std::memory_order_release);
  return n;
}

void phase(const std::string& label) {
  if (!g().armed.load(std::memory_order_relaxed)) return;
  emit(EventKind::kPhase, intern(label));
}

void set_bench(const std::string& bench) {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.cfg_mu);
  std::snprintf(G.bench, kBenchLen, "%s", bench.c_str());
}

void on_first_anomaly(const LiveStatus& status) {
  Global& G = g();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(G.cfg_mu);
    path = G.path;
  }
  if (path.empty() || G.watchdog_dumped.exchange(true)) return;
  if (!status.anomalies.empty()) {
    const LiveAnomaly& a = status.anomalies.front();
    emit(EventKind::kAnomaly, 0, a.worker);
  }
  std::string err;
  if (dump_impl(path, "watchdog", &status, &err)) {
    std::fprintf(stderr, "[obs] flight dump: %s (watchdog)\n", path.c_str());
  } else {
    std::fprintf(stderr, "[obs] flight dump failed: %s\n", err.c_str());
  }
}

bool dump(const std::string& path, const std::string& reason,
          std::string* error) {
  return dump_impl(path, reason, nullptr, error);
}

void arm(const std::string& path) {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.cfg_mu);
  disarm_locked(G);
  std::snprintf(G.path, kPathLen, "%s", path.c_str());
  std::snprintf(G.crash_path, kPathLen, "%s.crash", path.c_str());
  const int fd =
      ::open(G.crash_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "[obs] flight: cannot pre-open %s\n", G.crash_path);
  }
  G.crash_fd.store(fd);
#if defined(TC3I_FLIGHT_HAVE_BACKTRACE)
  // First backtrace() call may allocate inside libgcc; warm it here so
  // the signal-context call is allocation-free.
  void* warm[4];
  ::backtrace(warm, 4);
#endif
  struct sigaction sa = {};
  sa.sa_handler = fatal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGSEGV, &sa, &G.old_segv);
  ::sigaction(SIGABRT, &sa, &G.old_abrt);
  ::sigaction(SIGBUS, &sa, &G.old_bus);
  struct sigaction usr = {};
  usr.sa_handler = usr1_handler;
  sigemptyset(&usr.sa_mask);
  usr.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR1, &usr, &G.old_usr1);
  G.watchdog_dumped.store(false);
  G.armed.store(true);
}

void disarm() {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.cfg_mu);
  disarm_locked(G);
}

}  // namespace tc3i::obs::flight
