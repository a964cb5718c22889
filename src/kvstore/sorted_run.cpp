#include "origami/kv/sorted_run.hpp"

#include <algorithm>
#include <cassert>

namespace origami::kv {

SortedRun::SortedRun(std::vector<std::pair<std::string, Entry>> entries,
                     int bloom_bits_per_key)
    : entries_(std::move(entries)),
      bloom_(entries_.size(), bloom_bits_per_key) {
  assert(std::is_sorted(entries_.begin(), entries_.end(),
                        [](const auto& a, const auto& b) {
                          return a.first < b.first;
                        }));
  for (const auto& [key, entry] : entries_) {
    bloom_.add(key);
    bytes_ += key.size() + entry.value.size();
  }
}

const Entry* SortedRun::get(std::string_view key) const {
  if (entries_.empty() || !bloom_.may_contain(key)) return nullptr;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& pair, std::string_view k) { return pair.first < k; });
  if (it == entries_.end() || it->first != key) return nullptr;
  return &it->second;
}

void SortedRun::scan(
    std::string_view begin, std::string_view end,
    const std::function<bool(std::string_view, const Entry&)>& fn) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), begin,
      [](const auto& pair, std::string_view k) { return pair.first < k; });
  for (; it != entries_.end(); ++it) {
    if (!end.empty() && it->first >= end) break;
    if (!fn(it->first, it->second)) break;
  }
}

std::string_view SortedRun::min_key() const noexcept {
  return entries_.empty() ? std::string_view{} : std::string_view(entries_.front().first);
}

std::string_view SortedRun::max_key() const noexcept {
  return entries_.empty() ? std::string_view{} : std::string_view(entries_.back().first);
}

std::vector<std::pair<std::string, Entry>> merge_runs(
    const std::vector<SortedRunPtr>& newest_first, bool drop_tombstones) {
  // Cursor-based k-way merge. With few runs per guard (the FLSM invariant)
  // a linear scan over cursors beats a heap.
  struct Cursor {
    const std::vector<std::pair<std::string, Entry>>* entries;
    std::size_t pos = 0;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(newest_first.size());
  std::size_t total = 0;
  for (const auto& run : newest_first) {
    cursors.push_back({&run->entries(), 0});
    total += run->entry_count();
  }

  std::vector<std::pair<std::string, Entry>> out;
  out.reserve(total);
  while (true) {
    const std::string* min_key = nullptr;
    for (const auto& c : cursors) {
      if (c.pos >= c.entries->size()) continue;
      const std::string& k = (*c.entries)[c.pos].first;
      if (min_key == nullptr || k < *min_key) min_key = &k;
    }
    if (min_key == nullptr) break;
    const std::string key = *min_key;  // copy: cursors advance below
    // Newest-first order means the first cursor holding `key` wins.
    bool emitted = false;
    for (auto& c : cursors) {
      if (c.pos >= c.entries->size()) continue;
      if ((*c.entries)[c.pos].first != key) continue;
      if (!emitted) {
        const Entry& e = (*c.entries)[c.pos].second;
        if (!(drop_tombstones && e.tombstone)) out.emplace_back(key, e);
        emitted = true;
      }
      ++c.pos;
    }
  }
  return out;
}

}  // namespace origami::kv
