#include "origami/kv/memtable.hpp"

namespace origami::kv {

namespace {
constexpr std::size_t kEntryOverhead = 32;  // node + bookkeeping estimate
}  // namespace

std::int64_t MemTable::put(std::string_view key, std::string_view value,
                           std::uint64_t seqno) {
  auto [e, fresh] = table_.try_emplace(key);
  const std::int64_t delta =
      fresh ? static_cast<std::int64_t>(key.size() + value.size() +
                                        kEntryOverhead)
            : static_cast<std::int64_t>(value.size()) -
                  static_cast<std::int64_t>(e->value.size());
  e->value.assign(value);
  e->seqno = seqno;
  e->tombstone = false;
  bytes_ = static_cast<std::size_t>(static_cast<std::int64_t>(bytes_) + delta);
  return delta;
}

std::int64_t MemTable::del(std::string_view key, std::uint64_t seqno) {
  auto [e, fresh] = table_.try_emplace(key);
  const std::int64_t delta =
      fresh ? static_cast<std::int64_t>(key.size() + kEntryOverhead)
            : -static_cast<std::int64_t>(e->value.size());
  e->value.clear();
  e->seqno = seqno;
  e->tombstone = true;
  bytes_ = static_cast<std::size_t>(static_cast<std::int64_t>(bytes_) + delta);
  return delta;
}

const Entry* MemTable::get(std::string_view key) const {
  return table_.find(key);
}

void MemTable::scan(
    std::string_view begin, std::string_view end,
    const std::function<bool(std::string_view, const Entry&)>& fn) const {
  table_.scan(begin, end, fn);
}

std::vector<std::pair<std::string, Entry>> MemTable::snapshot() const {
  std::vector<std::pair<std::string, Entry>> out;
  out.reserve(table_.size());
  table_.scan({}, {}, [&](std::string_view k, const Entry& e) {
    out.emplace_back(std::string(k), e);
    return true;
  });
  return out;
}

}  // namespace origami::kv
