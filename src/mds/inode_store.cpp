#include "origami/mds/inode_store.hpp"

#include <cstring>

namespace origami::mds {

namespace {

/// Writes inode_key(parent, name) into `key`, reusing its capacity.
void write_inode_key(std::string& key, fsns::NodeId parent,
                     std::string_view name) {
  key.clear();
  const std::uint64_t p = parent;
  for (int shift = 56; shift >= 0; shift -= 8) {
    key.push_back(static_cast<char>((p >> shift) & 0xff));
  }
  key.append(name);
}

}  // namespace

std::string inode_key(fsns::NodeId parent, std::string_view name) {
  std::string key;
  key.reserve(8 + name.size());
  write_inode_key(key, parent, name);
  return key;
}

std::string encode_inode(const fsns::InodeAttr& attr, bool is_dir) {
  std::string out;
  out.resize(1 + sizeof(fsns::InodeAttr));
  out[0] = is_dir ? 1 : 0;
  std::memcpy(out.data() + 1, &attr, sizeof(fsns::InodeAttr));
  return out;
}

bool decode_inode(std::string_view data, fsns::InodeAttr& attr, bool& is_dir) {
  if (data.size() != 1 + sizeof(fsns::InodeAttr)) return false;
  is_dir = data[0] != 0;
  std::memcpy(&attr, data.data() + 1, sizeof(fsns::InodeAttr));
  return true;
}

common::Status InodeStore::put(const fsns::DirTree& tree, fsns::NodeId node,
                               const fsns::InodeAttr& attr) {
  const auto& n = tree.node(node);
  const fsns::NodeId parent = node == fsns::kRootNode ? fsns::kRootNode : n.parent;
  return db_.put(inode_key(parent, n.name), encode_inode(attr, n.is_dir));
}

common::Status InodeStore::erase(const fsns::DirTree& tree, fsns::NodeId node) {
  const auto& n = tree.node(node);
  const fsns::NodeId parent = node == fsns::kRootNode ? fsns::kRootNode : n.parent;
  return db_.del(inode_key(parent, n.name));
}

bool InodeStore::lookup(const fsns::DirTree& tree, fsns::NodeId node,
                        fsns::InodeAttr* attr) const {
  const auto& n = tree.node(node);
  const fsns::NodeId parent = node == fsns::kRootNode ? fsns::kRootNode : n.parent;
  // Per-thread key and value buffers: a warm lookup allocates nothing.
  thread_local std::string key;
  thread_local std::string value;
  write_inode_key(key, parent, n.name);
  if (!db_.get(key, &value)) return false;
  if (attr != nullptr) {
    bool is_dir = false;
    if (!decode_inode(value, *attr, is_dir)) return false;
  }
  return true;
}

void InodeStore::list_dir(
    fsns::NodeId dir,
    const std::function<bool(std::string_view name)>& fn) const {
  const std::string prefix = inode_key(dir, {});
  db_.scan_prefix(prefix, [&](std::string_view key, std::string_view) {
    return fn(key.substr(8));
  });
}

}  // namespace origami::mds
