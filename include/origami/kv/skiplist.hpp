#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "origami/common/hash.hpp"
#include "origami/common/rng.hpp"

namespace origami::kv {

/// A string-keyed skip list — the memtable structure of LevelDB-lineage
/// stores (PebblesDB included) — with a hash index beside it for point
/// reads. Each node is its own heap allocation owned by the list; none is
/// freed before the whole list is dropped at once when the memtable is
/// flushed, which is exactly the memtable lifecycle.
///
/// The skip list is the ordered structure: `scan` (and through it memtable
/// snapshots, flushes and compaction input) walks it in key order. The
/// index is a flat open-addressing table of node pointers hashed by key,
/// with linear probing, grown by doubling so that it stays at most half
/// full. Nodes are never removed, so the index needs no deletion markers.
/// `find` is one index probe; `try_emplace` is one probe, plus one list
/// walk only when the key is new.
///
/// Single-writer / multi-reader like the surrounding MemTable; external
/// synchronisation required for concurrent writes.
template <typename Value>
class SkipList {
 public:
  static constexpr int kMaxHeight = 12;

  SkipList()
      : rng_(0xdecafbadULL),
        head_(allocate_node({}, kMaxHeight)),
        index_(kMinIndexSlots, nullptr) {}

  /// Inserts `key` with a value-initialised value unless present. Returns
  /// the stored value and whether this call inserted it.
  std::pair<Value*, bool> try_emplace(std::string_view key) {
    std::size_t slot = probe(key);
    if (Node* hit = index_[slot]) return {&hit->value, false};

    Node* prev[kMaxHeight];
    find_greater_or_equal(key, prev);
    const int height = random_height();
    if (height > height_) {
      for (int level = height_; level < height; ++level) prev[level] = head_;
      height_ = height;
    }
    Node* fresh = allocate_node(key, height);
    for (int level = 0; level < height; ++level) {
      fresh->next[level] = prev[level]->next[level];
      prev[level]->next[level] = fresh;
    }
    ++size_;
    if (2 * size_ > index_.size()) {
      grow_index();
      slot = probe(key);
    }
    index_[slot] = fresh;
    return {&fresh->value, true};
  }

  /// Inserts or overwrites. Returns a reference to the stored value.
  Value& upsert(std::string_view key) { return *try_emplace(key).first; }

  /// Returns the value for `key`, or nullptr.
  [[nodiscard]] const Value* find(std::string_view key) const {
    Node* node = index_[probe(key)];
    return node != nullptr ? &node->value : nullptr;
  }
  [[nodiscard]] Value* find(std::string_view key) {
    Node* node = index_[probe(key)];
    return node != nullptr ? &node->value : nullptr;
  }

  /// Visits entries with key in [begin, end) in key order (empty `end`
  /// means unbounded); return false from the callback to stop.
  void scan(std::string_view begin, std::string_view end,
            const std::function<bool(std::string_view, const Value&)>& fn) const {
    for (Node* node = find_greater_or_equal(begin, nullptr); node != nullptr;
         node = node->next[0]) {
      if (!end.empty() && node->key >= end) break;
      if (!fn(node->key, node->value)) break;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Node storage footprint (keys included), for memtable size accounting.
  /// The index's slot array is not counted.
  [[nodiscard]] std::size_t arena_bytes() const noexcept { return arena_bytes_; }

 private:
  static constexpr std::size_t kMinIndexSlots = 16;  // a power of two

  struct Node {
    std::string key;
    Value value{};
    int height = 0;
    // Fixed-size successor array: heights are bounded by kMaxHeight, so
    // every node carries the full array and uses its first `height` slots.
    std::array<Node*, kMaxHeight> next{};
  };

  Node* allocate_node(std::string_view key, int height) {
    auto node = std::make_unique<Node>();
    node->key.assign(key);
    node->height = height;
    arena_bytes_ += sizeof(Node) + node->key.size();
    arena_.push_back(std::move(node));
    return arena_.back().get();
  }

  int random_height() {
    int height = 1;
    // P(bump) = 1/4 per level, LevelDB's branching factor.
    while (height < kMaxHeight && (rng_() & 3) == 0) ++height;
    return height;
  }

  /// Index slot holding `key`'s node, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(std::string_view key) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(common::hash_bytes(key)) & mask;
    while (index_[slot] != nullptr && index_[slot]->key != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void grow_index() {
    std::vector<Node*> old(2 * index_.size(), nullptr);
    old.swap(index_);
    for (Node* node : old) {
      if (node != nullptr) index_[probe(node->key)] = node;
    }
  }

  /// First node with key >= `key`; fills `prev` (length kMaxHeight) with
  /// the rightmost node before it on every level when non-null.
  Node* find_greater_or_equal(std::string_view key, Node** prev) const {
    Node* node = head_;
    int level = height_ - 1;
    while (true) {
      Node* next = node->next[static_cast<std::size_t>(level)];
      if (next != nullptr && next->key < key) {
        node = next;
      } else {
        if (prev != nullptr) prev[level] = node;
        if (level == 0) return next;
        --level;
      }
    }
  }

  common::Xoshiro256 rng_;
  std::vector<std::unique_ptr<Node>> arena_;
  std::size_t arena_bytes_ = 0;
  std::size_t size_ = 0;
  int height_ = 1;
  Node* head_;
  /// Open-addressing hash index over every node but the head; its size is
  /// a power of two and at least twice `size_`.
  std::vector<Node*> index_;
};

}  // namespace origami::kv
