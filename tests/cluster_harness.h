#ifndef DPSTORE_TESTS_CLUSTER_HARNESS_H_
#define DPSTORE_TESTS_CLUSTER_HARNESS_H_

// N-process dpstore_server cluster harness: the server_harness.h
// fork/stop/kill machinery generalized to a whole topology. A
// ClusterTopology names the shard ranges (member node indices, primary
// first) and the warm spares; the harness spawns one real dpstore_server
// per node on its own Unix socket, waits for every listener
// (deadline-based connect polling, shared with SpawnServer), renders the
// matching cluster config text (docs/cluster.md), and can kill / restart
// individual nodes mid-test or stop the survivors expecting clean SIGTERM
// drains.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "server_harness.h"

namespace dpstore {
namespace test {

/// A cluster shape: ranges[r] lists the member node indices of single-slot
/// range r (primary first); spares lists warm spare node indices. Node
/// count = highest index referenced + 1. Every range covers exactly one
/// slot, so slots == ranges.size() and the routing geometry matches the
/// `sharded` topology with that many shards.
struct ClusterTopology {
  std::vector<std::vector<int>> ranges;
  std::vector<int> spares;

  int NodeCount() const {
    int highest = -1;
    for (const auto& range : ranges) {
      for (int node : range) highest = std::max(highest, node);
    }
    for (int node : spares) highest = std::max(highest, node);
    return highest + 1;
  }
};

/// Common shapes for the equivalence matrix. "RxW" = R ranges x W-wide
/// member groups.
inline ClusterTopology Topology1x1() { return {{{0}}, {}}; }
inline ClusterTopology Topology2x1() { return {{{0}, {1}}, {}}; }
inline ClusterTopology Topology4x1() { return {{{0}, {1}, {2}, {3}}, {}}; }
/// Two ranges, each primary + replica.
inline ClusterTopology Topology2x2() { return {{{0, 1}, {2, 3}}, {}}; }
/// Topology2x2 plus one warm spare (node 4).
inline ClusterTopology Topology2x2Spare() { return {{{0, 1}, {2, 3}}, {4}}; }

class ClusterHarness {
 public:
  /// \param bin         dpstore_server binary (ServerBinary())
  /// \param topology    the cluster shape
  /// \param extra_args  appended to every node's command line
  ClusterHarness(std::string bin, ClusterTopology topology,
                 std::vector<std::string> extra_args = {})
      : bin_(std::move(bin)),
        topology_(std::move(topology)),
        extra_args_(std::move(extra_args)) {
    const int nodes = topology_.NodeCount();
    for (int i = 0; i < nodes; ++i) {
      sockets_.push_back("/tmp/dpstore_cluster_" + std::to_string(getpid()) +
                         "_n" + std::to_string(i) + ".sock");
      pids_.push_back(-1);
    }
  }

  ~ClusterHarness() {
    // Destructor cleanup must not EXPECT: SIGKILL whatever is still up.
    for (size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] > 0) KillServer(pids_[i]);
      std::remove(sockets_[i].c_str());
    }
  }

  int NodeCount() const { return static_cast<int>(sockets_.size()); }
  const std::string& SocketPath(int node) const { return sockets_[node]; }
  pid_t NodePid(int node) const { return pids_[node]; }
  // Built via append (not operator+ on a literal): GCC 12's -Wrestrict
  // false-positives on "literal" + temporary once inlined into the config
  // renderer below, and warnings are errors here.
  std::string NodeName(int node) const {
    std::string name("n");
    name.append(std::to_string(node));
    return name;
  }

  /// Spawns every node and waits for all listeners. False if any node
  /// failed to come up (the others are torn down by the destructor).
  bool Start() {
    for (int i = 0; i < NodeCount(); ++i) {
      if (!StartNode(i)) return false;
    }
    return true;
  }

  /// Spawns (or respawns) node `i` on its socket.
  bool StartNode(int i) {
    pids_[i] = SpawnServer(bin_, sockets_[i], extra_args_);
    return pids_[i] > 0;
  }

  /// SIGKILL: no drain, no flush — the failover tests' whole point.
  void KillNode(int i) {
    if (pids_[i] > 0) KillServer(pids_[i]);
    pids_[i] = -1;
  }

  /// SIGTERM every still-running node, expecting clean drains (exit 0).
  void StopAll() {
    for (size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] > 0) StopServer(pids_[i]);
      pids_[i] = -1;
    }
  }

  /// Renders the cluster config for this topology against the real node
  /// sockets (docs/cluster.md grammar).
  std::string ConfigText() const {
    std::vector<std::string> endpoints;
    for (const std::string& socket : sockets_) {
      endpoints.push_back("unix:" + socket);
    }
    return ConfigTextWithEndpoints(endpoints);
  }

  /// Same config, but node i dials endpoints[i] instead of its real
  /// socket — how the chaos test splices a ChaosProxy in front of every
  /// node without the topology noticing.
  std::string ConfigTextWithEndpoints(
      const std::vector<std::string>& endpoints) const {
    // Pure appends (no "literal" + temporary): GCC 12 -Wrestrict, again.
    std::string text = "# generated by ClusterHarness\n";
    text.append("slots ")
        .append(std::to_string(topology_.ranges.size()))
        .append("\n");
    for (int i = 0; i < NodeCount(); ++i) {
      text.append("node ").append(NodeName(i)).append(" ").append(
          endpoints[i]);
      text.append("\n");
    }
    for (size_t r = 0; r < topology_.ranges.size(); ++r) {
      text.append("range ")
          .append(std::to_string(r))
          .append(" ")
          .append(std::to_string(r + 1));
      for (int node : topology_.ranges[r]) {
        text.append(" ").append(NodeName(node));
      }
      text.append("\n");
    }
    for (int node : topology_.spares) {
      text.append("spare ").append(NodeName(node)).append("\n");
    }
    return text;
  }

 private:
  std::string bin_;
  ClusterTopology topology_;
  std::vector<std::string> extra_args_;
  std::vector<std::string> sockets_;
  std::vector<pid_t> pids_;
};

}  // namespace test
}  // namespace dpstore

#endif  // DPSTORE_TESTS_CLUSTER_HARNESS_H_
