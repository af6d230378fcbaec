#include "obs/timeline.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "core/contracts.hpp"
#include "obs/write_file.hpp"

namespace tc3i::obs {

const TimelineSeries& MachineTimeline::find(const std::string& name) const {
  for (const TimelineSeries& s : series)
    if (s.name == name) return s;
  contract_failure("MachineTimeline::find", name.c_str(), __FILE__, __LINE__);
}

TimelineStore::TimelineStore(std::uint64_t sample_period_cycles)
    : period_(sample_period_cycles) {
  TC3I_EXPECTS(period_ >= 1);
}

void TimelineStore::add(MachineTimeline timeline) {
  std::lock_guard<std::mutex> lock(mu_);
  timelines_.push_back(std::move(timeline));
}

void TimelineStore::merge_from(const TimelineStore& other) {
  TC3I_EXPECTS(&other != this);
  std::vector<MachineTimeline> theirs = other.timelines();
  std::lock_guard<std::mutex> lock(mu_);
  for (MachineTimeline& t : theirs) timelines_.push_back(std::move(t));
}

std::vector<MachineTimeline> TimelineStore::timelines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timelines_;
}

std::size_t TimelineStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timelines_.size();
}

void TimelineStore::write_csv(std::ostream& out) const {
  const std::vector<MachineTimeline> all = timelines();
  out << "run,model,name,series,cycle,value\n";
  char value_buf[32];
  for (std::size_t run = 0; run < all.size(); ++run) {
    const MachineTimeline& t = all[run];
    for (const TimelineSeries& s : t.series) {
      for (const TimelinePoint& p : s.points) {
        std::snprintf(value_buf, sizeof value_buf, "%.10g", p.value);
        out << run << ',' << t.model << ',' << t.name << ',' << s.name << ','
            << p.cycle << ',' << value_buf << '\n';
      }
    }
  }
}

bool TimelineStore::write_csv_file(const std::string& path,
                                   std::string* error) const {
  return write_file(
      path, [this](std::ostream& out) { write_csv(out); }, error);
}

std::string validate_timeline_csv(const std::string& text) {
  constexpr const char* kHeader = "run,model,name,series,cycle,value";
  std::size_t pos = 0;
  std::size_t line_no = 0;
  // Last seen cycle per run+series key, to enforce the strictly
  // increasing sample grid write_csv guarantees.
  std::map<std::string, std::uint64_t> last_cycle;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const std::string at = "line " + std::to_string(line_no) + ": ";
    if (line_no == 1) {
      if (line != kHeader)
        return at + "header is \"" + line + "\", expected \"" + kHeader +
               "\"";
      continue;
    }
    if (line.empty()) {
      return pos >= text.size() ? "" : at + "blank line inside the table";
    }
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = line.find(',', start);
      fields.push_back(line.substr(
          start, comma == std::string::npos ? comma : comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (fields.size() != 6)
      return at + std::to_string(fields.size()) + " columns, expected 6";
    char* end = nullptr;
    const unsigned long long run = std::strtoull(fields[0].c_str(), &end, 10);
    if (fields[0].empty() || *end != '\0')
      return at + "run \"" + fields[0] + "\" is not an integer";
    if (fields[1].empty()) return at + "empty model";
    if (fields[3].empty()) return at + "empty series";
    const unsigned long long cycle =
        std::strtoull(fields[4].c_str(), &end, 10);
    if (fields[4].empty() || *end != '\0')
      return at + "cycle \"" + fields[4] + "\" is not an integer";
    const double value = std::strtod(fields[5].c_str(), &end);
    if (fields[5].empty() || *end != '\0')
      return at + "value \"" + fields[5] + "\" is not a number";
    if (value < 0.0)
      return at + "negative value " + fields[5] + " (series " + fields[3] +
             ")";
    const std::string key = std::to_string(run) + "\x1f" + fields[3];
    const auto [it, first] = last_cycle.try_emplace(key, cycle);
    if (!first) {
      if (cycle <= it->second)
        return at + "cycle " + fields[4] + " not strictly increasing for " +
               "run " + fields[0] + " series " + fields[3];
      it->second = cycle;
    }
  }
  if (line_no == 0) return "empty file (missing header)";
  return "";
}

namespace {
TimelineStore* g_process_timeline = nullptr;
thread_local TimelineStore* t_timeline_override = nullptr;
}  // namespace

TimelineStore* active_timeline() {
  return t_timeline_override != nullptr ? t_timeline_override
                                        : g_process_timeline;
}

TimelineStore* process_timeline() { return g_process_timeline; }

void set_process_timeline(TimelineStore* store) { g_process_timeline = store; }

ScopedTimeline::ScopedTimeline(TimelineStore& store)
    : prev_(t_timeline_override) {
  t_timeline_override = &store;
}

ScopedTimeline::~ScopedTimeline() { t_timeline_override = prev_; }

}  // namespace tc3i::obs
