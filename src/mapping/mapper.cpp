#include "mapping/mapper.hpp"

#include <algorithm>
#include <stdexcept>

namespace dominosyn {

std::size_t MappedNetlist::cell_count() const {
  std::size_t count = 0;
  for (const auto* cell : cell_of)
    if (cell != nullptr) ++count;
  return count;
}

double MappedNetlist::total_area() const {
  double area = 0.0;
  for (const auto* cell : cell_of)
    if (cell != nullptr) area += cell->area;
  return area;
}

std::vector<double> MappedNetlist::node_loads(double wire_cap) const {
  std::vector<double> load(net.num_nodes(), 0.0);
  const auto add_pin = [&](NodeId driver, double cap) {
    load[driver] += cap + wire_cap;
  };
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const Cell* cell = cell_of[id];
    if (cell == nullptr) continue;
    for (const NodeId f : net.fanins(id)) add_pin(f, cell->input_cap);
  }
  for (const auto& latch : net.latches()) {
    const Cell* cell = cell_of[latch.output];
    add_pin(latch.input, cell != nullptr ? cell->input_cap : 1.0);
  }
  // Primary outputs drive a fixed external load.
  constexpr double kPoLoad = 1.0;
  for (const auto& po : net.pos())
    if (po.driver != kNullNode) load[po.driver] += kPoLoad;
  return load;
}

double MappedNetlist::clock_load() const {
  double cap = 0.0;
  for (const auto* cell : cell_of)
    if (cell != nullptr) cap += cell->clock_cap;
  return cap;
}

void MappedNetlist::resize_cell(NodeId id, unsigned size_index) {
  const Cell* current = cell_of.at(id);
  if (current == nullptr)
    throw std::runtime_error("resize_cell: node has no cell");
  cell_of[id] = &library->pick(current->function, current->arity, size_index);
}

namespace {

/// Greedily widens a same-kind fanout-free tree rooted at `root` into a flat
/// leaf list of at most `limit` entries.
std::vector<NodeId> flatten_tree(const Network& net, NodeId root, unsigned limit,
                                 const std::vector<std::uint32_t>& fanouts,
                                 std::vector<bool>& absorbed) {
  const NodeKind kind = net.kind(root);
  std::vector<NodeId> leaves = net.fanins(root);
  bool expanded = true;
  while (expanded && leaves.size() < limit) {
    expanded = false;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const NodeId leaf = leaves[i];
      if (net.kind(leaf) != kind || fanouts[leaf] != 1) continue;
      if (leaves.size() + net.fanins(leaf).size() - 1 > limit) continue;
      // Replace the leaf by its fanins.
      absorbed[leaf] = true;
      const auto fanins = net.fanins(leaf);
      leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(i));
      leaves.insert(leaves.end(), fanins.begin(), fanins.end());
      expanded = true;
      break;
    }
  }
  return leaves;
}

}  // namespace

MapResult map_network(const Network& domino_net, const CellLibrary& library,
                      const MapOptions& options) {
  MapResult result;
  MappedNetlist& mapped = result.netlist;
  mapped.library = &library;
  Network& out = mapped.net;
  out.set_name(domino_net.name() + "_mapped");

  const auto fanouts = domino_net.fanout_counts();
  std::vector<bool> absorbed(domino_net.num_nodes(), false);
  std::vector<NodeId> to_new(domino_net.num_nodes(), kNullNode);
  to_new[Network::const0()] = Network::const0();
  to_new[Network::const1()] = Network::const1();

  std::vector<NodeId> origin(2);
  origin[0] = Network::const0();
  origin[1] = Network::const1();
  const auto track = [&](NodeId new_id, NodeId old_id) {
    if (origin.size() <= new_id) origin.resize(new_id + 1, kNullNode);
    origin[new_id] = old_id;
  };

  for (const NodeId pi : domino_net.pis()) {
    to_new[pi] = out.add_pi(domino_net.node_name(pi).value_or("pi"));
    track(to_new[pi], pi);
  }
  for (const auto& latch : domino_net.latches()) {
    const NodeId new_latch = out.add_latch(latch.name, latch.init);
    to_new[latch.output] = new_latch;
    track(new_latch, latch.output);
  }

  // Identify absorbed nodes first (two-pass so traversal order is immaterial):
  // roots are processed in topo order, flattening marks interior nodes.
  const auto topo = domino_net.topo_order();
  std::vector<std::vector<NodeId>> leaves_of(domino_net.num_nodes());
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    const NodeKind kind = domino_net.kind(id);
    if (kind != NodeKind::kAnd && kind != NodeKind::kOr) continue;
    if (absorbed[id]) continue;
    const unsigned limit = kind == NodeKind::kAnd ? options.max_and_arity
                                                  : options.max_or_arity;
    leaves_of[id] = flatten_tree(domino_net, id, limit, fanouts, absorbed);
  }

  // Build mapped gates bottom-up; split into allowed-arity cells as needed.
  mapped.cell_of.assign(2, nullptr);
  const auto ensure_cell_slot = [&](NodeId new_id) {
    if (mapped.cell_of.size() <= new_id) mapped.cell_of.resize(new_id + 1, nullptr);
  };

  // Builds a (possibly multi-cell) gate over already-mapped leaf ids.
  const auto build_gate = [&](NodeKind kind, std::vector<NodeId> new_leaves,
                              NodeId old_root) -> NodeId {
    const CellFunction fn = kind == NodeKind::kAnd ? CellFunction::kDominoAnd
                                                   : CellFunction::kDominoOr;
    const unsigned max_avail = library.max_arity(fn);
    while (true) {
      if (new_leaves.size() <= max_avail) {
        const Cell* cell =
            library.pick_at_least(fn, static_cast<unsigned>(new_leaves.size()));
        if (cell == nullptr)
          throw std::runtime_error("map_network: no cell wide enough");
        const NodeId gate = out.add_gate(kind, std::move(new_leaves));
        ensure_cell_slot(gate);
        mapped.cell_of[gate] = cell;
        track(gate, old_root);
        return gate;
      }
      // Chunk the widest available cell and fold its output back in.
      std::vector<NodeId> chunk(new_leaves.begin(),
                                new_leaves.begin() + max_avail);
      new_leaves.erase(new_leaves.begin(),
                       new_leaves.begin() + max_avail);
      const Cell* cell = library.pick_at_least(fn, max_avail);
      const NodeId gate = out.add_gate(kind, std::move(chunk));
      ensure_cell_slot(gate);
      mapped.cell_of[gate] = cell;
      track(gate, old_root);
      new_leaves.push_back(gate);
    }
  };

  for (const NodeId id : topo) {
    const NodeKind kind = domino_net.kind(id);
    if (absorbed[id]) continue;
    switch (kind) {
      case NodeKind::kAnd:
      case NodeKind::kOr: {
        std::vector<NodeId> new_leaves;
        new_leaves.reserve(leaves_of[id].size());
        for (const NodeId leaf : leaves_of[id]) {
          if (to_new[leaf] == kNullNode)
            throw std::runtime_error("map_network: leaf not yet mapped");
          new_leaves.push_back(to_new[leaf]);
        }
        to_new[id] = build_gate(kind, std::move(new_leaves), id);
        break;
      }
      case NodeKind::kNot: {
        const NodeId fanin = to_new[domino_net.fanins(id)[0]];
        const NodeId inv = out.add_not(fanin);
        ensure_cell_slot(inv);
        mapped.cell_of[inv] = &library.pick(CellFunction::kStaticInv, 1);
        to_new[id] = inv;
        track(inv, id);
        break;
      }
      case NodeKind::kXor:
        throw std::runtime_error("map_network: XOR in domino netlist");
      default:
        break;  // sources handled above
    }
  }

  for (const auto& po : domino_net.pos()) out.add_po(po.name, to_new[po.driver]);
  for (std::size_t i = 0; i < domino_net.latches().size(); ++i) {
    const auto& latch = domino_net.latches()[i];
    const NodeId new_output = out.latches()[i].output;
    out.set_latch_input(new_output, to_new[latch.input]);
    ensure_cell_slot(new_output);
    mapped.cell_of[new_output] = &library.pick(CellFunction::kLatch, 1);
  }

  mapped.cell_of.resize(out.num_nodes(), nullptr);
  origin.resize(out.num_nodes(), kNullNode);
  result.origin_of = std::move(origin);
  result.image_of = std::move(to_new);
  out.validate();
  return result;
}

}  // namespace dominosyn
