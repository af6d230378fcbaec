#include "spans.hpp"

#include <algorithm>
#include <functional>

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

SpanId Tracer::begin(std::string name, SpanId parent) {
  const double t = now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{std::move(name), parent, t, t});
  return static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::end(SpanId id) {
  const double t = now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_s = t;
}

std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<SpanId>> children(spans.size());
  std::vector<SpanId> roots;
  std::vector<double> bounds;
  for (SpanId i = 0; i < spans.size(); ++i) {
    (spans[i].parent == kNoParent ? roots : children[spans[i].parent])
        .push_back(i);
    bounds.push_back(spans[i].start_s);
    bounds.push_back(spans[i].end_s);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Every span starts and ends on a segment boundary, so a span is either
  // open over a whole segment or not at all.
  std::map<std::string, double> self;
  double seg_start = 0.0;
  double seg_end = 0.0;
  const auto covers = [&](SpanId s) {
    return spans[s].start_s <= seg_start && spans[s].end_s >= seg_end;
  };
  const std::function<void(SpanId, double)> walk = [&](SpanId s, double w) {
    std::vector<SpanId> open;
    for (const SpanId c : children[s])
      if (covers(c)) open.push_back(c);
    if (open.empty()) {
      self[spans[s].name] += w;
      return;
    }
    for (const SpanId c : open) walk(c, w / static_cast<double>(open.size()));
  };
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    seg_start = bounds[i];
    seg_end = bounds[i + 1];
    for (const SpanId r : roots)
      if (covers(r)) walk(r, seg_end - seg_start);
  }
  return self;
}

}  // namespace perfbench
