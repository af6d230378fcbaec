#include "obs/counters.hpp"

#include "core/contracts.hpp"

namespace tc3i::obs {

void CounterRegistry::check_name(const std::string& name) {
  bool ok = !name.empty() && name.front() != '.' && name.back() != '.';
  char prev = '\0';
  for (const char c : name) {
    const bool valid =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!valid || (c == '.' && prev == '.')) ok = false;
    prev = c;
  }
  if (!ok)
    contract_failure("Metric name ([a-z0-9_.], dotted)", name.c_str(),
                     __FILE__, __LINE__);
}

Counter& CounterRegistry::counter(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& held = counters_[name];
  if (held == nullptr) held = std::make_unique<Counter>();
  return *held;
}

bool CounterRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.contains(name);
}

std::size_t CounterRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size();
}

void CounterRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
}

std::vector<MetricSnapshot> CounterRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    out.push_back(MetricSnapshot{name, c->value()});
  return out;
}

void CounterRegistry::merge_from(const CounterRegistry& other) {
  TC3I_EXPECTS(&other != this);
  // Snapshot the other side's values under its lock, then add them in
  // through counter() (which takes this->mu_ per entry) so the two locks
  // are never held together.
  for (const MetricSnapshot& m : other.snapshot()) counter(m.name).add(m.count);
}

namespace {
thread_local CounterRegistry* t_registry_override = nullptr;
}  // namespace

CounterRegistry& process_registry() {
  static CounterRegistry* registry = new CounterRegistry();  // never destroyed
  return *registry;
}

CounterRegistry& default_registry() {
  return t_registry_override != nullptr ? *t_registry_override
                                        : process_registry();
}

ScopedRegistry::ScopedRegistry(CounterRegistry& reg)
    : prev_(t_registry_override) {
  t_registry_override = &reg;
}

ScopedRegistry::~ScopedRegistry() { t_registry_override = prev_; }

std::function<void()> inherit_registry(std::function<void()> fn) {
  CounterRegistry* reg = &default_registry();
  return [reg, fn = std::move(fn)]() {
    ScopedRegistry scope(*reg);
    fn();
  };
}

}  // namespace tc3i::obs
