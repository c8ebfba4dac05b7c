/// \file topo.cpp
/// Topological traversal, logic levels, transitive fan-in cones and the
/// paper's cone-overlap measure O(i,j).

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "network/network.hpp"
#include "util/bits.hpp"

namespace dominosyn {

namespace {

enum class Mark : std::uint8_t { kWhite, kGray, kBlack };

/// Iterative DFS post-order from `root`, appending newly blackened nodes to
/// `order`.  Throws on a gray-gray edge (combinational cycle).
void dfs_post_order(const Network& net, NodeId root, std::vector<Mark>& marks,
                    std::vector<NodeId>& order) {
  if (marks[root] == Mark::kBlack) return;
  // Explicit stack of (node, next fanin index) to avoid recursion depth limits
  // on deep networks.
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.emplace_back(root, 0);
  marks[root] = Mark::kGray;
  while (!stack.empty()) {
    auto& [id, next] = stack.back();
    const auto& fanins = net.fanins(id);
    if (next < fanins.size()) {
      const NodeId child = fanins[next++];
      if (marks[child] == Mark::kGray)
        throw std::runtime_error("topo_order: combinational cycle detected");
      if (marks[child] == Mark::kWhite) {
        marks[child] = Mark::kGray;
        stack.emplace_back(child, 0);
      }
    } else {
      marks[id] = Mark::kBlack;
      order.push_back(id);
      stack.pop_back();
    }
  }
}

}  // namespace

std::vector<NodeId> Network::roots() const {
  std::vector<NodeId> result;
  result.reserve(pos_.size() + latches_.size());
  for (const auto& po : pos_)
    if (po.driver != kNullNode) result.push_back(po.driver);
  for (const auto& latch : latches_)
    if (latch.input != kNullNode) result.push_back(latch.input);
  return result;
}

std::vector<NodeId> Network::topo_order() const {
  std::vector<Mark> marks(nodes_.size(), Mark::kWhite);
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  // Constants and sources first so they always appear even if unreferenced.
  for (NodeId id = 0; id < nodes_.size(); ++id)
    if (is_source_kind(nodes_[id].kind)) {
      marks[id] = Mark::kBlack;
      order.push_back(id);
    }
  for (const NodeId root : roots()) dfs_post_order(*this, root, marks, order);
  // Include gates that are currently dead so callers can index by NodeId.
  for (NodeId id = 0; id < nodes_.size(); ++id)
    if (marks[id] == Mark::kWhite) dfs_post_order(*this, id, marks, order);
  return order;
}

std::vector<std::uint32_t> Network::levels() const {
  std::vector<std::uint32_t> level(nodes_.size(), 0);
  for (const NodeId id : topo_order()) {
    const auto& node = nodes_[id];
    std::uint32_t lvl = 0;
    for (const NodeId f : node.fanins) lvl = std::max(lvl, level[f] + 1);
    level[id] = node.fanins.empty() ? 0 : lvl;
  }
  return level;
}

std::vector<NodeId> Network::tfi_gates(NodeId root) const {
  std::vector<NodeId> result;
  if (root == kNullNode) return result;
  std::vector<bool> visited(nodes_.size(), false);
  std::vector<NodeId> stack{root};
  visited[root] = true;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (is_gate_kind(nodes_[id].kind)) result.push_back(id);
    for (const NodeId f : nodes_[id].fanins)
      if (!visited[f]) {
        visited[f] = true;
        stack.push_back(f);
      }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::uint32_t> Network::fanout_counts() const {
  std::vector<std::uint32_t> counts(nodes_.size(), 0);
  for (const auto& node : nodes_)
    for (const NodeId f : node.fanins) ++counts[f];
  for (const auto& po : pos_)
    if (po.driver != kNullNode) ++counts[po.driver];
  for (const auto& latch : latches_)
    if (latch.input != kNullNode) ++counts[latch.input];
  return counts;
}

ConeOverlap::ConeOverlap(const Network& net) {
  // One bitset per cone over node ids, filled by a DFS from the output's
  // driver that uses the bitset as its visited set; the sorted cone is then
  // a scan of the bits (the same set tfi_gates returns).  A pair's
  // intersection is the popcount of the AND over the two cones' common span
  // of words, computed once here for every pair.
  const std::size_t n = net.num_pos();
  const std::size_t words = (net.num_nodes() + 63) / 64;
  std::vector<std::uint64_t> bits(n * words, 0);
  std::vector<std::size_t> first(n, 0), last(n, 0);  // [first, last) words
  std::vector<NodeId> stack;
  cones_.resize(n);
  cone_size_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t* const row = bits.data() + i * words;
    const auto visit = [&](NodeId id) {
      if (!is_gate_kind(net.kind(id))) return;
      std::uint64_t& word = row[id / 64];
      const std::uint64_t bit = 1ULL << (id % 64);
      if ((word & bit) != 0) return;
      word |= bit;
      stack.push_back(id);
    };
    const NodeId driver = net.pos()[i].driver;
    if (driver != kNullNode) visit(driver);
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      for (const NodeId f : net.fanins(id)) visit(f);
    }
    std::vector<NodeId>& cone = cones_[i];
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t x = row[w]; x != 0; x &= x - 1)
        cone.push_back(static_cast<NodeId>(w * 64 + std::countr_zero(x)));
    cone_size_[i] = cone.size();
    if (!cone.empty()) {
      first[i] = cone.front() / 64;
      last[i] = cone.back() / 64 + 1;
    }
  }

  pair_intersection_.reserve(n < 2 ? 0 : n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* const a = bits.data() + i * words;
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint64_t* const b = bits.data() + j * words;
      std::uint32_t count = 0;
      const std::size_t end = std::min(last[i], last[j]);
      for (std::size_t w = std::max(first[i], first[j]); w < end; ++w)
        count += count_ones(a[w] & b[w]);
      pair_intersection_.push_back(count);
    }
  }
}

std::size_t ConeOverlap::intersection(std::size_t i, std::size_t j) const {
  const std::size_t n = cone_size_.size();
  if (i >= n || j >= n) throw std::out_of_range("ConeOverlap: output index");
  if (i == j) return cone_size_[i];
  if (i > j) std::swap(i, j);
  // Row i of the upper triangle starts after rows 0..i-1 (n-1-r pairs each).
  return pair_intersection_[i * (2 * n - i - 1) / 2 + (j - i - 1)];
}

double ConeOverlap::overlap(std::size_t i, std::size_t j) const {
  const std::size_t denom = cone_size_.at(i) + cone_size_.at(j);
  if (denom == 0) return 0.0;
  return static_cast<double>(intersection(i, j)) / static_cast<double>(denom);
}

}  // namespace dominosyn
