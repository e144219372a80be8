#include "exp/experiment.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "dfs/topology.hpp"
#include "obs/collect.hpp"
#include "opass/assignment_stats.hpp"
#include "opass/dynamic_scheduler.hpp"
#include "opass/planner.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass::exp {

namespace {

/// Derived deterministic RNG streams so placement is identical across
/// methods while assignment/execution noise stays independent.
struct Streams {
  Rng placement, assign, exec, faults;
  explicit Streams(std::uint64_t seed)
      : placement(seed * 2654435761ULL + 1),
        assign(seed * 2654435761ULL + 2),
        exec(seed * 2654435761ULL + 3),
        faults(seed * 2654435761ULL + 4) {}
};

/// Heartbeat + injector pair armed on a run's cluster when the config carries
/// a fault plan. Arm before runtime::execute; the scripted events and
/// detection checks are simulator timers, so they interleave with the job's
/// reads deterministically.
struct FaultHarness {
  std::unique_ptr<sim::HeartbeatMonitor> monitor;
  std::unique_ptr<sim::FaultInjector> injector;

  /// No-op when the config carries no fault plan.
  void arm(const ExperimentConfig& cfg, sim::Cluster& cluster, dfs::NameNode& nn, Rng& rng) {
    if (cfg.faults == nullptr) return;
    monitor = std::make_unique<sim::HeartbeatMonitor>(cluster, nn, /*namenode_host=*/0, rng,
                                                      cfg.heartbeat);
    injector = std::make_unique<sim::FaultInjector>(cluster, nn, *monitor, *cfg.faults);
    injector->set_probe(cfg.fault_probe);
    injector->arm();
    monitor->start(cfg.faults->horizon);
  }

  void export_stats(const ExperimentConfig& cfg) const {
    if (injector && cfg.fault_stats != nullptr) *cfg.fault_stats = injector->stats();
  }
};

/// The run's worker pool (DESIGN.md §12): the config's borrowed pool, a pool
/// owned for the duration when the config asks for threads > 1, or nothing
/// (serial). Only the Opass planner borrows it; simulation and execution
/// always run on the calling thread.
struct PoolHarness {
  std::optional<ThreadPool> owned;
  ThreadPool* pool = nullptr;

  explicit PoolHarness(const ExperimentConfig& cfg) {
    OPASS_REQUIRE(cfg.threads >= 1, "ExperimentConfig.threads must be >= 1");
    if (cfg.pool != nullptr) {
      pool = cfg.pool;
    } else if (cfg.threads > 1) {
      owned.emplace(cfg.threads);
      pool = &*owned;
    }
  }

  /// Register the pool's execution profile (all wall-clock tagged, so
  /// deterministic exports are unaffected).
  void export_stats(const ExperimentConfig& cfg) const {
    if (pool != nullptr && cfg.metrics != nullptr)
      obs::collect_thread_pool(*cfg.metrics, *pool, "pool");
  }
};

using TaskTable = std::vector<runtime::Task>;

/// The tasks `ids` of `tasks`, renumbered densely for the planners.
TaskTable renumbered(const TaskTable& tasks, const std::vector<runtime::TaskId>& ids) {
  TaskTable sub;
  sub.reserve(ids.size());
  for (runtime::TaskId id : ids) {
    runtime::Task copy = tasks[id];
    copy.id = static_cast<runtime::TaskId>(sub.size());
    sub.push_back(std::move(copy));
  }
  return sub;
}

/// The layout every scenario starts from: an m-node namespace holding the
/// workload `make_tasks` stores (placement seeded, so both methods see the
/// same layout), its task table, and `processes_per_node` processes per node.
template <class MakeTasks>
PlannedScenario build_scenario(const ExperimentConfig& cfg, Rng& placement_rng,
                               MakeTasks&& make_tasks) {
  PlannedScenario sc{dfs::NameNode(dfs::Topology::single_rack(cfg.nodes), cfg.replication,
                                   cfg.chunk_size),
                     {}, {}, {}, /*single_data=*/false};
  auto policy = dfs::make_placement(cfg.placement);
  sc.tasks = make_tasks(sc.nn, *policy, placement_rng);
  sc.placement = core::one_process_per_node(sc.nn, cfg.nodes * cfg.processes_per_node);
  return sc;
}

/// The plan step of a phase: rank intervals for the baseline, the `kind`
/// planner through the core::plan() facade for Opass.
runtime::Assignment plan_phase(const ExperimentConfig& cfg, Method method,
                               core::PlannerKind kind, const PlannedScenario& sc,
                               const TaskTable& tasks, Rng& rng,
                               graph::FlowWorkspace* workspace, ThreadPool* pool) {
  if (method == Method::kBaseline)
    return runtime::rank_interval_assignment(static_cast<std::uint32_t>(tasks.size()),
                                             static_cast<std::uint32_t>(sc.placement.size()));
  core::PlanOptions options;
  options.planner = kind;
  options.algorithm = cfg.flow_algorithm;
  options.workspace = workspace;
  options.threads = cfg.threads;
  options.pool = pool;
  auto result = core::plan({&sc.nn, &tasks, &sc.placement, &rng}, options);
  // Counters accumulate across per-step replans (ParaView); gauges keep the
  // last step's value.
  if (cfg.metrics != nullptr) obs::collect_plan(*cfg.metrics, result, "opass.planner");
  return std::move(result.assignment);
}

/// Fold one step/epoch execution into a run-level aggregate: traces, task
/// spans and read breakdowns concatenate (breakdowns stay index-aligned with
/// the concatenated records), finish times take the latest, stalls and
/// counters sum.
void accumulate(runtime::ExecutionResult& agg, const runtime::ExecutionResult& step) {
  for (const auto& rec : step.trace.records()) agg.trace.add(rec);
  agg.task_spans.insert(agg.task_spans.end(), step.task_spans.begin(),
                        step.task_spans.end());
  agg.read_breakdowns.insert(agg.read_breakdowns.end(), step.read_breakdowns.begin(),
                             step.read_breakdowns.end());
  if (agg.process_finish_time.size() < step.process_finish_time.size())
    agg.process_finish_time.resize(step.process_finish_time.size(), 0);
  for (std::size_t p = 0; p < step.process_finish_time.size(); ++p)
    agg.process_finish_time[p] =
        std::max(agg.process_finish_time[p], step.process_finish_time[p]);
  if (agg.barrier_stall.size() < step.barrier_stall.size())
    agg.barrier_stall.resize(step.barrier_stall.size(), 0);
  for (std::size_t p = 0; p < step.barrier_stall.size(); ++p)
    agg.barrier_stall[p] += step.barrier_stall[p];
  agg.makespan = std::max(agg.makespan, step.makespan);
  agg.tasks_executed += step.tasks_executed;
  agg.read_failures += step.read_failures;
}

/// The reductions a RunOutput needs, folded one phase at a time so a phase's
/// records and task spans can be dropped as soon as it ends.
///
/// Folding per phase reproduces the whole-run reduction byte for byte. Phase
/// k + 1 starts only after the cluster went idle at the end of phase k, so
/// each of its issue and end times is >= every time in phase k, and in the
/// concatenated record order phase k's records come first. The whole run's
/// stable sort by end (or issue) time is therefore the concatenation of the
/// phases' stable sorts, and summarize() sees the same sequence. Served
/// bytes and read counts are integer sums.
struct RunFold {
  std::vector<double> io_by_end;    ///< completion order
  std::vector<double> io_by_issue;  ///< issue order
  std::vector<Bytes> served;        ///< per node
  std::size_t reads = 0, local_reads = 0;
  std::uint32_t tasks_executed = 0;

  RunFold(std::uint32_t node_count, std::size_t expected_reads) : served(node_count, 0) {
    io_by_end.reserve(expected_reads);
    io_by_issue.reserve(expected_reads);
  }

  /// Folds one phase in. `node_count` is the namenode's count after the
  /// phase: a fault plan's join adds a node mid-run, and the reads it serves
  /// count like any other node's.
  void add(const runtime::ExecutionResult& exec, std::uint32_t node_count) {
    append(io_by_end, exec.trace.io_times());
    append(io_by_issue, exec.trace.io_times_by_issue());
    if (served.size() < node_count) served.resize(node_count, 0);
    const auto phase_served = exec.trace.bytes_served_per_node(node_count);
    for (std::uint32_t n = 0; n < node_count; ++n) served[n] += phase_served[n];
    local_reads += exec.trace.local_count();
    reads += exec.trace.size();
    tasks_executed += exec.tasks_executed;
  }

 private:
  /// Appends into the reserved series; unreserved (a one-phase run), the
  /// phase's series moves in, so the run holds one copy of it.
  static void append(std::vector<double>& to, std::vector<double> phase) {
    if (to.capacity() == 0)
      to = std::move(phase);
    else
      to.insert(to.end(), phase.begin(), phase.end());
  }
};

/// Dynamic dispatch (Fig. 11), handed to the runner in place of replaying
/// the phase's plan. The baseline plans nothing; Opass plans its guideline
/// A* like any phase and the master consumes it.
struct DynamicHook {
  /// The master's task source (`guideline` is null for the baseline).
  std::function<runtime::TaskSource&(const runtime::Assignment* guideline)> source;
  /// Feeds an armed fault plan's membership events back into the scheduler.
  std::function<void(sim::FaultInjector&, ThreadPool*)> on_faults;
  /// Registers the scheduler's metrics, after the cluster's.
  std::function<void(obs::MetricsRegistry&)> collect;
};

/// A scenario's reduced run plus the wall time of each phase.
struct PhasedOutput {
  RunOutput run;
  std::vector<Seconds> phase_times;
  Seconds total_time = 0;
};

/// The one plan→simulate pipeline every scenario runs. Phase k executes the
/// task table `phases[k]` on one cluster, starting where phase k − 1 ended.
/// A phase plans its table, or replays the previous plan when it runs the
/// previous phase's table again (iterative epochs compute the matching
/// once). The runner owns the cluster, the executor config, the worker
/// pool, the timeline, the fault plan (one-phase scenarios only), span
/// observation, the per-phase reduction and the observe tail.
PhasedOutput run_phases(const ExperimentConfig& cfg, Method method, PlannedScenario& sc,
                        Streams& streams, const std::vector<const TaskTable*>& phases,
                        core::PlannerKind planner, const DynamicHook* dynamic = nullptr) {
  // A fault plan's heartbeats run to its horizon, so a second phase would
  // start only after it; no phase-end rule is defined yet.
  OPASS_REQUIRE(cfg.faults == nullptr || phases.size() == 1,
                "fault plans are supported only by the one-phase scenarios "
                "(single, multi, dynamic)");
  PoolHarness pool(cfg);
  // A scenario that re-plans (ParaView steps) shares one workspace across
  // its plans, so each re-plan reuses the warmed network/solver arenas; a
  // scenario planned once lets the planner free its network on return
  // instead of holding it through the simulation.
  const bool replans =
      std::adjacent_find(phases.begin(), phases.end(), std::not_equal_to<>()) != phases.end();
  graph::FlowWorkspace workspace;
  const bool has_plan = dynamic == nullptr || method == Method::kOpass;
  const auto plan_tasks = [&](const TaskTable& tasks) {
    return plan_phase(cfg, method, planner, sc, tasks, streams.assign,
                      replans ? &workspace : nullptr, pool.pool);
  };
  // The first phase plans before the cluster exists, so the planner's
  // transient memory is returned before the simulator allocates.
  runtime::Assignment plan;
  if (has_plan && !phases.empty()) plan = plan_tasks(*phases.front());

  sim::Cluster cluster(cfg.nodes, cfg.cluster);
  runtime::ExecutorConfig ec;
  ec.replica_choice = cfg.replica_choice;
  ec.process_count = static_cast<std::uint32_t>(sc.placement.size());
  ec.record_read_breakdown = cfg.spans != nullptr;
  // One timeline spans every phase; expected bytes grow per phase.
  obs::RunTimeline timeline(cfg.timeline, cluster, ec.process_count);
  ec.probe = timeline.executor_probe();

  // Each phase folds into `fold` and is dropped. Only an observer that reads
  // whole executions (the metrics collectors, the raw sink) gets the
  // run-level aggregate; a one-phase run moves its execution in whole.
  const bool observed = cfg.raw != nullptr || cfg.metrics != nullptr;
  std::size_t reads = 0;
  runtime::ExecutionResult agg;
  if (phases.size() > 1) {
    std::size_t task_count = 0;
    for (const TaskTable* table : phases) {
      reads += runtime::total_task_inputs(*table);
      task_count += table->size();
    }
    if (observed) {
      agg.trace.reserve(reads);
      agg.task_spans.reserve(task_count);
      if (ec.record_read_breakdown) agg.read_breakdowns.reserve(reads);
    }
  }
  RunFold fold(sc.nn.node_count(), reads);

  core::AssignmentStats plan_stats;
  Bytes planned_total = 0, planned_local = 0;
  FaultHarness faults;
  PhasedOutput out;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const TaskTable& tasks = *phases[k];
    const bool replan = has_plan && (k == 0 || phases[k] != phases[k - 1]);
    if (replan && k > 0) plan = plan_tasks(tasks);

    const Seconds start = cluster.simulator().now();
    timeline.add_expected_bytes(runtime::total_task_bytes(sc.nn, tasks));
    std::optional<runtime::StaticAssignmentSource> replay;
    runtime::TaskSource& source = dynamic != nullptr
                                      ? dynamic->source(has_plan ? &plan : nullptr)
                                      : replay.emplace(plan);
    // Armed after the first plan, so the planner sees the healthy layout.
    if (k == 0) faults.arm(cfg, cluster, sc.nn, streams.faults);
    if (faults.injector && dynamic != nullptr && dynamic->on_faults)
      dynamic->on_faults(*faults.injector, pool.pool);
    auto exec = runtime::execute(cluster, sc.nn, tasks, source, streams.exec, ec);
    out.phase_times.push_back(exec.makespan - start);
    // Spans append per phase against the phase's own task table; the
    // aggregate's task ids would alias across renumbered steps.
    if (cfg.spans != nullptr) obs::append_execution_spans(*cfg.spans, exec, tasks, cluster);
    // Scored after the phase ran: a fault plan's recovery is part of the
    // layout the plan met.
    if (replan) plan_stats = core::evaluate_assignment(sc.nn, tasks, plan, sc.placement);
    planned_total += plan_stats.total_bytes;
    planned_local += plan_stats.local_bytes;
    fold.add(exec, sc.nn.node_count());
    if (!observed) continue;
    if (phases.size() == 1)
      agg = std::move(exec);
    else
      accumulate(agg, exec);
  }
  for (Seconds t : out.phase_times) out.total_time += t;

  timeline.finish();
  faults.export_stats(cfg);
  pool.export_stats(cfg);
  if (cfg.metrics != nullptr) {
    const std::string prefix = method_name(method);
    obs::collect_execution(*cfg.metrics, agg, sc.nn.node_count(), prefix + ".executor");
    obs::collect_cluster(*cfg.metrics, cluster, prefix + ".cluster");
    if (dynamic != nullptr && dynamic->collect) dynamic->collect(*cfg.metrics);
  }
  if (cfg.raw != nullptr) *cfg.raw = std::move(agg);

  RunOutput& run = out.run;
  run.io = summarize(fold.io_by_end);
  run.io_times = std::move(fold.io_by_issue);
  for (Bytes b : fold.served) run.served_mb.push_back(to_mib(b));
  run.local_fraction = sim::local_fraction(fold.local_reads, fold.reads);
  run.makespan = out.total_time;
  run.tasks_executed = fold.tasks_executed;
  run.planned_local_fraction =
      planned_total ? static_cast<double>(planned_local) / static_cast<double>(planned_total)
                    : 0.0;
  return out;
}

PlannedScenario build_single_data(const ExperimentConfig& cfg, Streams& streams,
                                  std::uint32_t chunk_count, Seconds compute_per_task = 0) {
  auto sc = build_scenario(cfg, streams.placement,
                           [&](dfs::NameNode& nn, dfs::PlacementPolicy& policy, Rng& rng) {
                             return workload::make_single_data_workload(
                                 nn, chunk_count, policy, rng, compute_per_task);
                           });
  sc.single_data = true;
  return sc;
}

PlannedScenario build_multi_data(const ExperimentConfig& cfg, Streams& streams,
                                 std::uint32_t task_count,
                                 const workload::MultiInputSpec& spec) {
  return build_scenario(cfg, streams.placement,
                        [&](dfs::NameNode& nn, dfs::PlacementPolicy& policy, Rng& rng) {
                          return workload::make_multi_input_workload(nn, task_count, policy,
                                                                     rng, spec);
                        });
}

}  // namespace

const char* method_name(Method m) {
  return m == Method::kBaseline ? "baseline" : "opass";
}

PlannedScenario plan_single_data(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                                 Method method) {
  Streams streams(cfg.seed);
  auto sc = build_single_data(cfg, streams, chunk_count);
  sc.assignment = plan_phase(cfg, method, core::PlannerKind::kSingleData, sc, sc.tasks,
                             streams.assign, nullptr, cfg.pool);
  return sc;
}

PlannedScenario plan_multi_data(const ExperimentConfig& cfg, std::uint32_t task_count,
                                Method method, const workload::MultiInputSpec& spec) {
  Streams streams(cfg.seed);
  auto sc = build_multi_data(cfg, streams, task_count, spec);
  sc.assignment = plan_phase(cfg, method, core::PlannerKind::kMultiData, sc, sc.tasks,
                             streams.assign, nullptr, cfg.pool);
  return sc;
}

RunOutput run_single_data(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                          Method method) {
  Streams streams(cfg.seed);
  auto sc = build_single_data(cfg, streams, chunk_count);
  return run_phases(cfg, method, sc, streams, {&sc.tasks}, core::PlannerKind::kSingleData)
      .run;
}

RunOutput run_multi_data(const ExperimentConfig& cfg, std::uint32_t task_count, Method method,
                         const workload::MultiInputSpec& spec) {
  Streams streams(cfg.seed);
  auto sc = build_multi_data(cfg, streams, task_count, spec);
  return run_phases(cfg, method, sc, streams, {&sc.tasks}, core::PlannerKind::kMultiData)
      .run;
}

RunOutput run_dynamic(const ExperimentConfig& cfg, std::uint32_t task_count, Method method,
                      const workload::GenomicsSpec& spec) {
  Streams streams(cfg.seed);
  workload::GenomicsSpec s = spec;
  s.partition_count = task_count;
  auto sc = build_scenario(cfg, streams.placement,
                           [&](dfs::NameNode& nn, dfs::PlacementPolicy& policy, Rng& rng) {
                             return workload::make_genomics_workload(nn, policy, rng, s);
                           });

  std::optional<runtime::MasterWorkerSource> random_order;
  std::optional<core::OpassDynamicSource> opass;
  DynamicHook hook;
  if (method == Method::kBaseline) {
    hook.source = [&](const runtime::Assignment*) -> runtime::TaskSource& {
      return random_order.emplace(task_count, streams.assign, /*shuffle=*/true);
    };
  } else {
    // Opass: the matching-based guideline A*, consumed by the Section IV-D
    // master (own list first, then best-co-located steal from longest list).
    hook.source = [&](const runtime::Assignment* guideline) -> runtime::TaskSource& {
      return opass.emplace(*guideline, sc.nn, sc.tasks, sc.placement);
    };
    // Membership changes feed back into the scheduler (DESIGN.md §11): a
    // detected death re-homes the dead node's pending list immediately; once
    // the layout settles again (join, recovery complete) the remaining tasks
    // are re-planned through the core::plan() facade and adopted as the new
    // guideline A*.
    hook.on_faults = [&](sim::FaultInjector& injector, ThreadPool* pool) {
      injector.set_membership_callback(
          [&, pool](Seconds /*now*/, sim::MembershipEvent ev, dfs::NodeId node) {
            if (ev == sim::MembershipEvent::kNodeDead) {
              opass->on_node_dead(node);
              return;
            }
            if (ev != sim::MembershipEvent::kNodeJoined &&
                ev != sim::MembershipEvent::kRecoveryComplete)
              return;
            const auto remaining = opass->remaining_task_ids();
            if (remaining.empty()) return;
            // Re-plan the pending tasks (renumbered densely for the matcher,
            // mapped back to original ids for the scheduler).
            const TaskTable sub = renumbered(sc.tasks, remaining);
            core::PlanOptions options;
            options.planner = core::PlannerKind::kSingleData;
            options.algorithm = cfg.flow_algorithm;
            options.pool = pool;
            auto sub_assignment =
                core::plan({&sc.nn, &sub, &sc.placement, &streams.assign}, options).assignment;
            runtime::Assignment mapped(sub_assignment.size());
            for (std::size_t p = 0; p < sub_assignment.size(); ++p)
              for (runtime::TaskId t : sub_assignment[p]) mapped[p].push_back(remaining[t]);
            opass->adopt_guideline(mapped);
          });
    };
    hook.collect = [&](obs::MetricsRegistry& metrics) {
      obs::collect_dynamic(metrics, *opass, "opass.dynamic");
    };
  }
  return run_phases(cfg, method, sc, streams, {&sc.tasks}, core::PlannerKind::kSingleData,
                    &hook)
      .run;
}

ParaViewOutput run_paraview(const ExperimentConfig& cfg, Method method,
                            const workload::ParaViewSpec& spec) {
  Streams streams(cfg.seed);
  std::vector<std::vector<runtime::TaskId>> steps;
  auto sc = build_scenario(cfg, streams.placement,
                           [&](dfs::NameNode& nn, dfs::PlacementPolicy& policy, Rng& rng) {
                             auto wl = workload::make_paraview_workload(nn, policy, rng, spec);
                             steps = std::move(wl.steps);
                             return std::move(wl.tasks);
                           });
  // One phase per rendering step, over that step's pieces renumbered for
  // the assigners; Opass plans each inside ReadXMLData().
  std::vector<TaskTable> step_tables;
  step_tables.reserve(steps.size());
  for (const auto& step : steps) step_tables.push_back(renumbered(sc.tasks, step));
  std::vector<const TaskTable*> phases;
  for (const TaskTable& table : step_tables) phases.push_back(&table);

  auto phased = run_phases(cfg, method, sc, streams, phases, core::PlannerKind::kSingleData);
  return {std::move(phased.run), std::move(phased.phase_times), phased.total_time};
}

IterativeOutput run_iterative(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                              std::uint32_t epochs, Method method,
                              Seconds compute_per_task) {
  OPASS_REQUIRE(epochs > 0, "need at least one epoch");
  Streams streams(cfg.seed);
  auto sc = build_single_data(cfg, streams, chunk_count, compute_per_task);
  // Every epoch runs the same table, so the plan is computed once, before the
  // first epoch — for Opass this is where the matching overhead is amortized.
  const std::vector<const TaskTable*> phases(epochs, &sc.tasks);
  auto phased = run_phases(cfg, method, sc, streams, phases, core::PlannerKind::kSingleData);
  return {std::move(phased.run), std::move(phased.phase_times), phased.total_time};
}

}  // namespace opass::exp
