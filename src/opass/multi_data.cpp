#include "opass/multi_data.hpp"

#include <deque>

#include "common/require.hpp"
#include "opass/co_location.hpp"
#include "opass/single_data.hpp"  // equal_quotas

namespace opass::core {

MultiDataPlan assign_multi_data(const dfs::NameNode& nn,
                                const std::vector<runtime::Task>& tasks,
                                const ProcessPlacement& placement,
                                MultiDataOptions /*options*/) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");
  for (dfs::NodeId node : placement)
    OPASS_REQUIRE(node < nn.node_count(), "process placed on unknown node");

  // Matching values m_i^j = co-located bytes between process i and task j
  // (the Fig. 6(a) table), stored sparsely: m_i^j = index.bytes(node(i), j).
  const CoLocationIndex index(nn, tasks);

  // Process p's preference order is all tasks by descending matching value,
  // id ascending as the deterministic tie-break. That is the non-zero prefix
  // index.tasks_on(node(p)), walked by cursor[p], then every zero-valued task
  // in id order, walked by tail[p] skipping the ids the prefix holds.
  std::vector<std::size_t> cursor(m, 0);
  std::vector<std::uint32_t> tail(m, 0);

  const auto quotas = equal_quotas(n, m);
  std::vector<std::uint32_t> owner(n, UINT32_MAX);
  std::vector<std::uint32_t> held(m, 0);

  MultiDataPlan plan;

  // Round-robin over deficient processes; each iteration is one proposal.
  std::deque<std::uint32_t> deficient;
  for (std::uint32_t p = 0; p < m; ++p)
    if (held[p] < quotas[p]) deficient.push_back(p);

  while (!deficient.empty()) {
    const std::uint32_t p = deficient.front();
    deficient.pop_front();
    if (held[p] >= quotas[p]) continue;  // satisfied by an earlier steal-back

    const dfs::NodeId node = placement[p];
    const auto prefix = index.tasks_on(node);
    std::uint32_t tx;
    Bytes value = 0;  // m_p^tx
    if (cursor[p] < prefix.size()) {
      tx = prefix[cursor[p]].id;
      value = prefix[cursor[p]].bytes;
      ++cursor[p];
    } else {
      while (tail[p] < n && index.bytes(node, tail[p]) > 0) ++tail[p];
      // A deficient process always has an unconsidered task left: once it
      // has considered all n tasks, all n are assigned, which forces every
      // process to its quota (sum of quotas == n) — contradiction.
      OPASS_CHECK(tail[p] < n, "deficient process exhausted its preference list");
      tx = tail[p]++;
    }

    if (owner[tx] == UINT32_MAX) {
      owner[tx] = p;
      ++held[p];
    } else if (value > 0 && index.bytes(placement[owner[tx]], tx) < value) {
      // Reassignment event (Fig. 6(b)): the current owner loses the task.
      // A zero-valued proposal can never win, so it skips the lookup.
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
    plan.matched_bytes += index.bytes(placement[owner[t]], t);
  }
  for (const auto& task : tasks) plan.total_bytes += task.input_bytes(nn);
  for (std::uint32_t p = 0; p < m; ++p)
    OPASS_CHECK(held[p] == quotas[p] && plan.assignment[p].size() == quotas[p],
                "process ended away from its quota");
  return plan;
}

}  // namespace opass::core
