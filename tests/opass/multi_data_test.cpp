#include "opass/multi_data.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/require.hpp"
#include "opass/assignment_stats.hpp"
#include "opass/single_data.hpp"
#include "runtime/static_partitioner.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace opass::core {
namespace {

// Reference: Algorithm 1 over the dense m x n Fig. 6(a) table, as
// assign_multi_data computed it before the sparse co-location index. The
// differential test below requires the production matcher to reproduce it
// exactly.
MultiDataPlan dense_reference(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                              const ProcessPlacement& placement) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");

  // Matching values m_i^j = co-located bytes between process i and task j,
  // as a dense matrix (the Fig. 6(a) table).
  std::vector<Bytes> value(static_cast<std::size_t>(m) * n, 0);
  auto val = [&](std::uint32_t p, std::uint32_t t) -> Bytes& {
    return value[static_cast<std::size_t>(p) * n + t];
  };
  for (std::uint32_t p = 0; p < m; ++p) {
    const dfs::NodeId node = placement[p];
    OPASS_REQUIRE(node < nn.node_count(), "process placed on unknown node");
    for (std::uint32_t t = 0; t < n; ++t) {
      Bytes co = 0;
      for (dfs::ChunkId c : tasks[t].inputs)
        if (nn.chunk(c).has_replica_on(node)) co += nn.chunk(c).size;
      val(p, t) = co;
    }
  }

  // Per-process preference order: tasks by descending matching value, id
  // ascending as the deterministic tie-break.
  std::vector<std::vector<std::uint32_t>> pref(m);
  for (std::uint32_t p = 0; p < m; ++p) {
    pref[p].resize(n);
    std::iota(pref[p].begin(), pref[p].end(), 0u);
    std::stable_sort(pref[p].begin(), pref[p].end(), [&](std::uint32_t a, std::uint32_t b) {
      return val(p, a) > val(p, b);
    });
  }

  const auto quotas = equal_quotas(n, m);
  std::vector<std::uint32_t> owner(n, UINT32_MAX);
  std::vector<std::uint32_t> held(m, 0);
  std::vector<std::size_t> cursor(m, 0);  // next unconsidered preference index

  MultiDataPlan plan;

  // Round-robin over deficient processes; each iteration is one proposal.
  std::deque<std::uint32_t> deficient;
  for (std::uint32_t p = 0; p < m; ++p)
    if (held[p] < quotas[p]) deficient.push_back(p);

  while (!deficient.empty()) {
    const std::uint32_t p = deficient.front();
    deficient.pop_front();
    if (held[p] >= quotas[p]) continue;  // satisfied by an earlier steal-back
    // A deficient process always has an unconsidered task left: once it has
    // considered all n tasks, all n are assigned, which forces every process
    // to its quota (sum of quotas == n) — contradiction.
    OPASS_CHECK(cursor[p] < n, "deficient process exhausted its preference list");

    const std::uint32_t tx = pref[p][cursor[p]++];
    if (owner[tx] == UINT32_MAX) {
      owner[tx] = p;
      ++held[p];
    } else if (val(owner[tx], tx) < val(p, tx)) {
      // Reassignment event (Fig. 6(b)): the current owner loses the task.
      const std::uint32_t l = owner[tx];
      owner[tx] = p;
      ++held[p];
      --held[l];
      ++plan.reassignments;
      deficient.push_back(l);
    }
    if (held[p] < quotas[p]) deficient.push_back(p);
  }

  plan.assignment.assign(m, {});
  for (std::uint32_t t = 0; t < n; ++t) {
    OPASS_CHECK(owner[t] != UINT32_MAX, "task left unassigned by Algorithm 1");
    plan.assignment[owner[t]].push_back(t);
    plan.matched_bytes += val(owner[t], t);
  }
  for (const auto& task : tasks) plan.total_bytes += task.input_bytes(nn);
  for (std::uint32_t p = 0; p < m; ++p)
    OPASS_CHECK(held[p] == quotas[p] && plan.assignment[p].size() == quotas[p],
                "process ended away from its quota");
  return plan;
}

/// Places every replica on a node drawn from [0, nodes - cold): the `cold`
/// highest-numbered nodes never hold data.
class WarmNodesPlacement : public dfs::PlacementPolicy {
 public:
  explicit WarmNodesPlacement(std::uint32_t cold) : cold_(cold) {}
  std::vector<dfs::NodeId> place(const dfs::Topology& topo, dfs::NodeId,
                                 std::uint32_t replication, Rng& rng) override {
    return rng.sample_without_replacement(topo.node_count() - cold_, replication);
  }
  std::string name() const override { return "warm-nodes"; }

 private:
  std::uint32_t cold_;
};

TEST(MultiData, AssignsEveryTaskWithEqualQuotas) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  const auto tasks = workload::make_multi_input_workload(nn, 24, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto plan = assign_multi_data(nn, tasks, placement);

  EXPECT_TRUE(runtime::is_partition(plan.assignment, 24));
  for (const auto& list : plan.assignment) EXPECT_EQ(list.size(), 3u);
}

TEST(MultiData, MatchedBytesConsistentWithAssignment) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(2);
  const auto tasks = workload::make_multi_input_workload(nn, 16, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto plan = assign_multi_data(nn, tasks, placement);

  const auto stats = evaluate_assignment(nn, tasks, plan.assignment, placement);
  EXPECT_EQ(stats.local_bytes, plan.matched_bytes);
  EXPECT_EQ(stats.total_bytes, plan.total_bytes);
  EXPECT_EQ(plan.total_bytes, 16u * 60 * kMiB);  // 30+20+10 MB per task
}

TEST(MultiData, BeatsRankIntervalOnRandomLayouts) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    dfs::NameNode nn(dfs::Topology::single_rack(16), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = workload::make_multi_input_workload(nn, 64, policy, rng);
    const auto placement = one_process_per_node(nn);

    const auto plan = assign_multi_data(nn, tasks, placement);
    const auto base = runtime::rank_interval_assignment(64, 16);
    const auto base_stats = evaluate_assignment(nn, tasks, base, placement);

    EXPECT_GE(plan.matched_fraction(), base_stats.local_fraction()) << "seed " << seed;
  }
}

TEST(MultiData, PrefersLargerCoLocation) {
  // Hand-built Fig. 6 style case: the task with 40 MB co-located with p0
  // must go to p0 over a task with only 10 MB co-located.
  dfs::NameNode nn(dfs::Topology::single_rack(2), 1, kDefaultChunkSize);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    std::vector<dfs::NodeId> place(const dfs::Topology&, dfs::NodeId, std::uint32_t,
                                   Rng&) override {
      // files: t0-a (40M)->n0, t0-b (10M)->n1 ; t1-a (40M)->n1, t1-b (10M)->n0
      static const dfs::NodeId seq[] = {0, 1, 1, 0};
      return {seq[i_++]};
    }
    std::string name() const override { return "fixed"; }
    int i_ = 0;
  } policy;
  Rng rng(3);
  std::vector<runtime::Task> tasks(2);
  tasks[0].id = 0;
  tasks[1].id = 1;
  const auto fa = nn.create_file(40 * kMiB, policy, rng);
  const auto fb = nn.create_file(10 * kMiB, policy, rng);
  const auto fc = nn.create_file(40 * kMiB, policy, rng);
  const auto fd = nn.create_file(10 * kMiB, policy, rng);
  tasks[0].inputs = {nn.file(fa).chunks[0], nn.file(fb).chunks[0]};
  tasks[1].inputs = {nn.file(fc).chunks[0], nn.file(fd).chunks[0]};

  const auto plan = assign_multi_data(nn, tasks, one_process_per_node(nn));
  EXPECT_EQ(plan.assignment[0], (std::vector<runtime::TaskId>{0}));
  EXPECT_EQ(plan.assignment[1], (std::vector<runtime::TaskId>{1}));
  EXPECT_EQ(plan.matched_bytes, 80 * kMiB);
}

TEST(MultiData, ReassignmentEventHappens) {
  // Fig. 6(b): a task first taken by a weaker process is stolen by a
  // stronger one. p0 sees both tasks; t1 is far better for p1.
  //
  //  n=2 nodes, r=1. t0: 30M on n0. t1: 10M on n0 + 40M on n1.
  //  Preference of p0: t0 (30M) then t1 (10M). p1: t1 (40M).
  //  Quota 1 each: p0 takes t0; p1 takes t1 — or if p1 moves first and takes
  //  t1 with 40M, p0 still gets t0. Either way optimal. To force a steal,
  //  give p0 higher value on t1 than on t0 but p1 even higher on t1:
  //  t0: 10M on n0; t1: 30M on n0 + 40M on n1.
  dfs::NameNode nn(dfs::Topology::single_rack(2), 1, kDefaultChunkSize);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    std::vector<dfs::NodeId> place(const dfs::Topology&, dfs::NodeId, std::uint32_t,
                                   Rng&) override {
      static const dfs::NodeId seq[] = {0, 0, 1};
      return {seq[i_++]};
    }
    std::string name() const override { return "fixed"; }
    int i_ = 0;
  } policy;
  Rng rng(3);
  std::vector<runtime::Task> tasks(2);
  tasks[0].id = 0;
  tasks[1].id = 1;
  const auto f0 = nn.create_file(10 * kMiB, policy, rng);   // n0
  const auto f1a = nn.create_file(30 * kMiB, policy, rng);  // n0
  const auto f1b = nn.create_file(40 * kMiB, policy, rng);  // n1
  tasks[0].inputs = {nn.file(f0).chunks[0]};
  tasks[1].inputs = {nn.file(f1a).chunks[0], nn.file(f1b).chunks[0]};

  const auto plan = assign_multi_data(nn, tasks, one_process_per_node(nn));
  // p0 proposes to t1 first (30M > 10M) and takes it; p1 then steals t1
  // (40M > 30M); p0 falls back to t0.
  EXPECT_EQ(plan.reassignments, 1u);
  EXPECT_EQ(plan.assignment[0], (std::vector<runtime::TaskId>{0}));
  EXPECT_EQ(plan.assignment[1], (std::vector<runtime::TaskId>{1}));
}

TEST(MultiData, WorksWithSingleInputTasks) {
  // Algorithm 1 degenerates gracefully to single-input workloads.
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(5);
  const auto tasks = workload::make_single_data_workload(nn, 32, policy, rng);
  const auto plan = assign_multi_data(nn, tasks, one_process_per_node(nn));
  EXPECT_TRUE(runtime::is_partition(plan.assignment, 32));
  EXPECT_GT(plan.matched_fraction(), 0.5);
}

TEST(MultiData, TasksWithNoLocalityStillAssigned) {
  // Zero co-location everywhere (processes on nodes with no data): every
  // task still lands somewhere, quotas exact.
  dfs::NameNode nn(dfs::Topology::single_rack(6), 2, kDefaultChunkSize);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    std::vector<dfs::NodeId> place(const dfs::Topology&, dfs::NodeId, std::uint32_t,
                                   Rng&) override {
      return {4, 5};  // all data on nodes 4 and 5
    }
    std::string name() const override { return "fixed"; }
  } policy;
  Rng rng(7);
  const auto tasks = workload::make_single_data_workload(nn, 8, policy, rng);
  // Processes only on nodes 0..3.
  const ProcessPlacement placement{0, 1, 2, 3};
  const auto plan = assign_multi_data(nn, tasks, placement);
  EXPECT_TRUE(runtime::is_partition(plan.assignment, 8));
  EXPECT_EQ(plan.matched_bytes, 0u);
  for (const auto& list : plan.assignment) EXPECT_EQ(list.size(), 2u);
}

TEST(MultiData, UnevenTaskCountSpreadsRemainder) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(9);
  const auto tasks = workload::make_single_data_workload(nn, 10, policy, rng);
  const auto plan = assign_multi_data(nn, tasks, one_process_per_node(nn));
  EXPECT_EQ(plan.assignment[0].size(), 3u);
  EXPECT_EQ(plan.assignment[1].size(), 3u);
  EXPECT_EQ(plan.assignment[2].size(), 2u);
  EXPECT_EQ(plan.assignment[3].size(), 2u);
}

TEST(MultiData, MatchesDenseReferenceOnRandomLayouts) {
  // Input arity 1-4, r in {1, 2, 3}, 1-3 processes per node (several
  // processes share one node's preference prefix), fewer tasks than
  // processes (zero quotas), tasks listing one chunk twice, nodes holding no
  // replica, and chunk sizes from a small set so matching values tie often.
  std::uint32_t steals = 0;
  std::uint32_t zero_quota_layouts = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(seed);
    const auto replication = static_cast<std::uint32_t>(1 + rng.uniform(3));
    const auto cold = static_cast<std::uint32_t>(rng.uniform(3));
    const auto nodes = static_cast<std::uint32_t>(replication + cold + rng.uniform(12));
    dfs::NameNode nn(dfs::Topology::single_rack(nodes), replication, 32 * kMiB);
    WarmNodesPlacement policy(cold);
    const auto files = static_cast<std::uint32_t>(1 + rng.uniform(40));
    for (std::uint32_t f = 0; f < files; ++f)
      nn.create_file((1 + rng.uniform(6)) * 8 * kMiB, policy, rng);

    const auto task_count = static_cast<std::uint32_t>(rng.uniform(60));
    std::vector<runtime::Task> tasks(task_count);
    for (std::uint32_t t = 0; t < task_count; ++t) {
      tasks[t].id = t;
      const auto arity = 1 + rng.uniform(4);
      for (std::uint64_t i = 0; i < arity; ++i) {
        const bool repeat = !tasks[t].inputs.empty() && rng.bernoulli(0.15);
        tasks[t].inputs.push_back(
            repeat ? tasks[t].inputs.back()
                   : static_cast<dfs::ChunkId>(rng.uniform(nn.chunk_count())));
      }
    }

    const auto per_node = static_cast<std::uint32_t>(1 + rng.uniform(3));
    auto placement = one_process_per_node(nn, nodes * per_node);
    if (rng.bernoulli(0.3))
      for (auto& node : placement) node = static_cast<dfs::NodeId>(rng.uniform(nodes));

    const auto want = dense_reference(nn, tasks, placement);
    const auto got = assign_multi_data(nn, tasks, placement);
    EXPECT_EQ(got.assignment, want.assignment) << "seed " << seed;
    EXPECT_EQ(got.matched_bytes, want.matched_bytes) << "seed " << seed;
    EXPECT_EQ(got.reassignments, want.reassignments) << "seed " << seed;
    EXPECT_EQ(got.total_bytes, want.total_bytes) << "seed " << seed;
    steals += want.reassignments;
    if (placement.size() > task_count) ++zero_quota_layouts;
  }
  // The sweep must reach the reassignment path and the zero-quota case.
  EXPECT_GT(steals, 0u);
  EXPECT_GT(zero_quota_layouts, 0u);
}

}  // namespace
}  // namespace opass::core
