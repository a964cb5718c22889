#include "origami/fsns/dir_tree.hpp"

#include <algorithm>
#include <cassert>

namespace origami::fsns {

DirTree::DirTree() {
  Node root;
  root.is_dir = true;
  root.name = "";
  nodes_.push_back(std::move(root));
  dir_count_ = 1;
}

NodeId DirTree::add_node(NodeId parent, std::string name, bool is_dir) {
  assert(parent < nodes_.size());
  assert(nodes_[parent].is_dir);
  const auto id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.parent = parent;
  n.depth = nodes_[parent].depth + 1;
  n.is_dir = is_dir;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  Node& p = nodes_[parent];
  p.children.push_back(id);
  if (is_dir) {
    ++p.sub_dirs;
    ++dir_count_;
  } else {
    ++p.sub_files;
    ++file_count_;
  }
  return id;
}

NodeId DirTree::add_dir(NodeId parent, std::string name) {
  return add_node(parent, std::move(name), /*is_dir=*/true);
}

NodeId DirTree::add_file(NodeId parent, std::string name) {
  return add_node(parent, std::move(name), /*is_dir=*/false);
}

std::string DirTree::full_path(NodeId id) const {
  std::string out;
  full_path(id, out);
  return out;
}

void DirTree::full_path(NodeId id, std::string& out) const {
  if (id == kRootNode) {
    out.assign("/");
    return;
  }
  // Size the path first, then fill it leaf-first from the back.
  std::size_t pos = 0;
  for (NodeId cur = id; cur != kRootNode; cur = nodes_[cur].parent) {
    pos += 1 + nodes_[cur].name.size();
  }
  out.resize(pos);
  for (NodeId cur = id; cur != kRootNode; cur = nodes_[cur].parent) {
    const std::string& name = nodes_[cur].name;
    pos -= name.size();
    name.copy(out.data() + pos, name.size());
    out[--pos] = '/';
  }
}

std::vector<NodeId> DirTree::ancestors(NodeId id) const {
  std::vector<NodeId> chain;
  chain.reserve(nodes_[id].depth + 1);
  for (NodeId cur = id; cur != kInvalidNode; cur = nodes_[cur].parent) {
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

void DirTree::finalize() {
  // Children always have larger ids than parents (append-only build), so a
  // single reverse sweep accumulates subtree sizes bottom-up.
  for (auto& n : nodes_) n.subtree_nodes = 1;
  for (std::size_t i = nodes_.size(); i-- > 1;) {
    nodes_[nodes_[i].parent].subtree_nodes += nodes_[i].subtree_nodes;
  }
}

void DirTree::visit_subtree(NodeId root_id,
                            const std::function<void(NodeId)>& fn) const {
  std::vector<NodeId> stack{root_id};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    fn(id);
    const Node& n = nodes_[id];
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
}

bool DirTree::in_subtree(NodeId node_id, NodeId root_id) const {
  for (NodeId cur = node_id; cur != kInvalidNode; cur = nodes_[cur].parent) {
    if (cur == root_id) return true;
    if (nodes_[cur].depth < nodes_[root_id].depth) return false;
  }
  return false;
}

std::vector<NodeId> DirTree::directories() const {
  std::vector<NodeId> out;
  out.reserve(dir_count_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_dir) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

}  // namespace origami::fsns
