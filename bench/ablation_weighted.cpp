// Byte-weighted vs count-equal assignment on heterogeneous file sizes.
//
// The paper's Fig. 5 network carries *byte* capacities (TotalSize/m per
// process), but its experiments use uniform 64 MB chunks where count-equal
// and byte-equal coincide. This ablation separates them: a VTK-like series
// with mixed file sizes (8–64 MiB), comparing the rank-interval baseline,
// the unit (count-equal) Opass matcher, and the byte-weighted matcher.
#include <cstdio>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"

namespace {

using namespace opass;

}  // namespace

int main() {
  const std::uint32_t nodes = 64;
  const std::uint32_t files = 640;

  dfs::NameNode nn(dfs::Topology::single_rack(nodes), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(77);

  std::vector<runtime::Task> tasks;
  Bytes total = 0;
  for (std::uint32_t i = 0; i < files; ++i) {
    const Bytes size = (8 + rng.uniform(57)) * kMiB;  // 8..64 MiB
    const auto fid = nn.create_file(size, policy, rng);
    runtime::Task t;
    t.id = i;
    t.inputs = {nn.file(fid).chunks[0]};
    tasks.push_back(std::move(t));
    total += size;
  }
  const auto placement = core::one_process_per_node(nn);

  std::printf("Heterogeneous series: %u files, %.1f GiB total, sizes 8-64 MiB, %u nodes\n\n",
              files, to_gib(total), nodes);

  struct Variant {
    const char* name;
    runtime::Assignment assignment;
  };
  std::vector<Variant> variants;
  variants.push_back(
      {"rank-interval", runtime::rank_interval_assignment(files, nodes)});
  {
    Rng arng(5);
    variants.push_back(
        {"opass count-equal", core::plan({&nn, &tasks, &placement, &arng}).assignment});
  }
  {
    Rng arng(5);
    core::PlanOptions options;
    options.planner = core::PlannerKind::kWeighted;
    variants.push_back({"opass byte-equal",
                        core::plan({&nn, &tasks, &placement, &arng}, options).assignment});
  }

  Table t({"assignment", "local %", "byte spread (MiB)", "avg I/O (s)", "makespan (s)"});
  for (auto& v : variants) {
    const auto stats = core::evaluate_assignment(nn, tasks, v.assignment, placement);
    Bytes hi = 0, lo = UINT64_MAX;
    for (const auto& list : v.assignment) {
      Bytes b = 0;
      for (auto task : list) b += nn.chunk(tasks[task].inputs[0]).size;
      hi = std::max(hi, b);
      lo = std::min(lo, b);
    }
    sim::Cluster cluster(nodes);
    runtime::StaticAssignmentSource source(v.assignment);
    Rng exec_rng(13);
    const auto result = runtime::execute(cluster, nn, tasks, source, exec_rng);
    t.add_row({v.name, Table::num(100 * stats.local_fraction(), 1),
               Table::num(to_mib(hi - lo), 0),
               Table::num(summarize(result.trace.io_times()).mean, 2),
               Table::num(result.makespan, 1)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nBoth Opass variants reach ~full locality; byte-equal additionally evens\n"
              "the per-process byte load, which shortens the barrier (makespan) when\n"
              "file sizes vary — the regime where Fig. 5's byte capacities matter.\n");
  return 0;
}
