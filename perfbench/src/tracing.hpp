#pragma once

// The benchmark's own recorders. Everything here sits outside the library:
// spans are taken around calls into the public API of each layer, and the
// engine is observed only through its public seams (cluster::Balancer,
// engine::Observer, the live on_epoch hook).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "origami/cluster/balancer.hpp"
#include "origami/engine/observer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spins (does not sleep) for `micros`, so an injected delay costs host
/// time the way real work would, independent of scheduler wake-up slack.
inline void spin_for_micros(std::uint64_t micros) {
  if (micros == 0) return;
  const auto until = Clock::now() + std::chrono::microseconds(micros);
  while (Clock::now() < until) {
  }
}

/// In-memory span store. A span has a name, start, end and the id of the
/// span open when it began; nothing is written until `summary()` is asked
/// for at the end of the run. A disabled recorder records nothing.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };

  /// Per-name totals: count, summed duration, summed self time (a span's
  /// duration minus the time its direct children cover).
  struct Total {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int open(std::string name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), Clock::now(), {}, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  [[nodiscard]] std::map<std::string, Total> summary() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += duration(s);
      }
    }
    std::map<std::string, Total> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Total& t = out[spans_[i].name];
      ++t.count;
      t.total_s += duration(spans_[i]);
      t.self_s += duration(spans_[i]) - child_s[i];
    }
    return out;
  }

  [[nodiscard]] static double duration(const Span& s) {
    return std::chrono::duration<double>(s.end - s.start).count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name)
      : rec_(rec), id_(rec.open(std::move(name))) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Forwards `prepare` and `rebalance` to a registry-built balancer, timing
/// each as a span and counting calls and decisions. `delay_micros` is the
/// sensitivity self-test's known host delay; measured runs leave it 0.
class TimedBalancer final : public origami::cluster::Balancer {
 public:
  TimedBalancer(std::unique_ptr<origami::cluster::Balancer> inner,
                SpanRecorder& spans, std::uint64_t delay_micros)
      : inner_(std::move(inner)), spans_(spans), delay_micros_(delay_micros) {}

  /// The engine subscribes a balancer that is also an observer; a wrapper
  /// would hide that, so the caller attaches this instead.
  [[nodiscard]] origami::engine::Observer* inner_observer() const {
    return dynamic_cast<origami::engine::Observer*>(inner_.get());
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void prepare(const origami::fsns::DirTree& tree,
               origami::mds::PartitionMap& map) override {
    ScopedSpan span(spans_, "policy.prepare");
    inner_->prepare(tree, map);
  }

  std::vector<origami::cluster::MigrationDecision> rebalance(
      const origami::cluster::EpochSnapshot& snapshot,
      const origami::fsns::DirTree& tree,
      const origami::mds::PartitionMap& map) override {
    ScopedSpan span(spans_, "policy.rebalance");
    spin_for_micros(delay_micros_);
    auto chosen = inner_->rebalance(snapshot, tree, map);
    ++calls;
    decisions += chosen.size();
    return chosen;
  }

  std::uint64_t calls = 0;
  std::uint64_t decisions = 0;

 private:
  std::unique_ptr<origami::cluster::Balancer> inner_;
  SpanRecorder& spans_;
  std::uint64_t delay_micros_;
};

/// Host-clock view of the epoch DES: timestamps every epoch boundary and
/// counts arrivals. An epoch's engine time runs from the previous
/// `on_epoch_end` (or construction, for the first epoch) to this epoch's
/// `on_epoch_begin`, so it excludes the balancer's decision in between.
/// Construct it just before the replay starts.
class EpochClock final : public origami::engine::Observer {
 public:
  void on_epoch_begin(const origami::cluster::EpochSnapshot&) override {
    epoch_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - mark_)
            .count());
  }
  void on_epoch_end(const origami::cluster::EpochMetrics&,
                    const origami::engine::EpochCounters&) override {
    mark_ = Clock::now();
  }
  void on_arrival(const origami::engine::ArrivalEvent&) override {
    ++arrivals;
  }

  std::vector<double> epoch_ms;
  std::uint64_t arrivals = 0;

 private:
  Clock::time_point mark_ = Clock::now();
};

/// Quantile of an unsorted sample (nearest rank); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace perfbench
