#include "workloads.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "engine/lane_engine.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/lane_executor.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/shard/shard_runner.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/world_factory.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ex = ccd::exp;
namespace fs = std::filesystem;

namespace {

// Workload sizes (see perfbench/README.md for why each workload exists).
constexpr std::uint32_t kConsensusSeeds = 256;  // four full 64-lane blocks
constexpr std::size_t kMultihopGrids = 4;       // ~250 ms per grid seed
constexpr std::uint32_t kMultihopSeeds = 3;  // the grid's native count
constexpr std::size_t kReportShards = 4;
// One worker: two busy workers slowed each other's heavy cells about 2x in
// some host phases and not in others, so fleet's cell_tail_ms flipped
// between ~10 and ~20 ms (perfbench/README.md, "Noise").
constexpr std::size_t kFleetWorkers = 1;
// Far above any cell's time: a healthy fleet never steals.
constexpr double kFleetStaleAfterSecs = 600.0;

/// FNV-1a 64; add() continues the stream, so several grids hash as the
/// concatenation of their bytes.
class Fnv {
 public:
  void add(const std::string& bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Grid seeds derive from the benchmark seed, so one --seed fixes every
/// input of the run.
std::uint64_t derive_grid_seed(std::uint64_t seed, std::uint64_t k) {
  return ccd::hash_mix(seed * 0x9e3779b97f4a7c15ull + k);
}

ex::SweepGrid consensus_grid(const Config& c) {
  ex::SweepGrid g = *ex::SweepGrid::named("crash");
  if (c.tiny) g.ns = {4, 8};
  g.seeds_per_cell = c.tiny ? 64 : kConsensusSeeds;
  g.grid_seed = derive_grid_seed(c.seed, 0);
  return g;
}

/// The multihop grid over several grid seeds; `multihop` runs them in
/// process and `fleet` dispatches the same inputs.
std::vector<ex::SweepGrid> multihop_grids(const Config& c) {
  std::vector<ex::SweepGrid> grids;
  for (std::size_t k = 0; k < (c.tiny ? 1 : kMultihopGrids); ++k) {
    ex::SweepGrid g = *ex::SweepGrid::named("multihop");
    if (c.tiny) g.ns = {8};
    g.seeds_per_cell = kMultihopSeeds;
    g.grid_seed = derive_grid_seed(c.seed, k);
    grids.push_back(std::move(g));
  }
  return grids;
}

/// `default` crossed with every detector, policy, CM and loss at one seed
/// per cell: thousands of cheap cells.
ex::SweepGrid report_grid(const Config& c) {
  using D = ex::DetectorKind;
  using P = ex::PolicyKind;
  ex::SweepGrid g = *ex::SweepGrid::named("default");
  if (c.tiny) {
    g.detectors = {D::kAC, D::kNoCd};
    g.policies = {P::kTruthful, P::kSpurious};
  } else {
    g.detectors = {D::kAC,     D::kMajAC,  D::kHalfAC,  D::kZeroAC,
                   D::kOAC,    D::kMajOAC, D::kHalfOAC, D::kZeroOAC,
                   D::kNoCd,   D::kNoAcc};
    g.policies = {P::kTruthful,  P::kPreferNull,    P::kPreferCollision,
                  P::kSpurious,  P::kFlakyMajority, P::kRandomLegal};
  }
  g.cms = {ex::CmKind::kNoCm, ex::CmKind::kWakeup, ex::CmKind::kLeader,
           ex::CmKind::kBackoff};
  g.losses = {ex::LossKind::kNoLoss, ex::LossKind::kEcf,
              ex::LossKind::kProbabilistic, ex::LossKind::kUnrestricted};
  g.seeds_per_cell = 1;
  g.grid_seed = derive_grid_seed(c.seed, 0);
  return g;
}

Rendered render(const ex::SweepGrid& grid,
                const std::vector<ex::CellAggregate>& cells, Tracer* tr) {
  Rendered r;
  {
    Scope s(tr, "render.json");
    r.json = ex::aggregates_to_json(grid, cells);
  }
  {
    Scope s(tr, "render.csv");
    r.csv = ex::aggregates_to_csv(cells);
  }
  {
    Scope s(tr, "render.dist");
    r.dist = ex::cells_to_dist_json(grid, cells);
  }
  return r;
}

struct ReportHash {
  Fnv json, csv, dist;
  void add(const Rendered& r) {
    json.add(r.json);
    csv.add(r.csv);
    dist.add(r.dist);
  }
  Hashes value() const { return {json.value(), csv.value(), dist.value()}; }
};

void maybe_corrupt(const Config& c, Rendered& r) {
  if (c.corrupt && !r.json.empty()) r.json[r.json.size() / 2] ^= 0x01;
}

/// Per-cell wall times from the program's own run spans.  The pool runs
/// on one thread, so a cell's runs execute back to back and its wall time
/// is first start to last end.
void append_cell_times(const ccd::obs::SweepPerf& perf,
                       std::vector<std::uint64_t>& out) {
  bool open = false;
  std::uint64_t cell = 0, start = 0, end = 0;
  for (const ccd::obs::RunSpan& span : perf.spans) {
    if (!open || span.cell_index != cell) {
      if (open) out.push_back(end - start);
      open = true;
      cell = span.cell_index;
      start = span.start_ns;
    }
    end = span.end_ns;
  }
  if (open) out.push_back(end - start);
}

std::uint64_t g_probe_sink = 0;  // keeps probe results observable

/// Side counts of a traced sweep that spans alone do not carry.
struct SweepTally {
  std::size_t runs = 0;
  std::size_t lane_runs = 0;
  std::size_t lane_blocks = 0;
  std::size_t error_runs = 0;
  std::uint64_t diameter_calls = 0;
  std::uint64_t make_est_ns = 0;  ///< probe time x builds the program does
  ccd::obs::EngineCounters counters;
};

/// Time the world-construction layer by calling it again on the block's
/// head spec, outside the engine call.  The program builds the topology
/// once per block (scalar single-hop consensus builds none), takes its
/// diameter unless the run is single-hop consensus, and builds one World
/// per consensus run -- so the make probe is charged once per run in the
/// block.
void probe_world(const std::vector<ex::ScenarioSpec>& specs, bool lanes,
                 std::uint64_t id, Tracer& tr, SweepTally& tally) {
  const ex::ScenarioSpec& head = specs[0];
  const bool consensus = head.workload == ex::WorkloadKind::kConsensus;
  const bool single_hop_consensus =
      consensus && head.topology == ex::TopologyKind::kSingleHop;
  if (lanes || !single_hop_consensus) {
    Scope topo_span(&tr, "world.topology", id);
    const ccd::Topology topo = ex::WorldFactory::make_topology(head);
    topo_span.close();
    if (!single_hop_consensus) {
      Scope s(&tr, "world.diameter", id);
      g_probe_sink += topo.diameter();
      ++tally.diameter_calls;
    }
  }
  if (consensus) {
    Scope s(&tr, "world.make", id);
    {
      const ccd::World world = ex::WorldFactory::make(head);
      g_probe_sink += world.processes.size();
    }
    tally.make_est_ns += s.close() * specs.size();
  }
}

/// mis-then-consensus builds one more World per run that elects a head:
/// phase 2's consensus among the surviving heads.  Probe it once per block
/// on the first such run and charge it to every such run.
void probe_phase2(const std::vector<ex::ScenarioSpec>& specs,
                  const std::vector<ex::ScenarioOutcome>& outcomes,
                  std::uint64_t id, Tracer& tr, SweepTally& tally) {
  if (specs[0].workload != ex::WorkloadKind::kMisThenConsensus) return;
  std::size_t with_phase2 = 0, first = 0;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    if (!outcomes[k].mh.consensus) continue;
    if (with_phase2++ == 0) first = k;
  }
  if (with_phase2 == 0) return;
  Scope s(&tr, "world.make", id);
  {
    const ccd::World world = ex::WorldFactory::make(ex::WorldFactory::phase2_spec(
        specs[first], static_cast<std::uint32_t>(outcomes[first].mh.mis_size)));
    g_probe_sink += world.processes.size();
  }
  tally.make_est_ns += s.close() * with_phase2;
}

/// The grid, run single-threaded with the lane blocks SweepRunner forms
/// (eligible specs, consecutive runs, one cell, at most kLaneWidth), each
/// layer call wrapped in a span, folded in run order with accumulate_run.
std::vector<ex::CellAggregate> traced_sweep(const ex::SweepGrid& grid,
                                            Tracer& tr, SweepTally& tally) {
  std::vector<ex::CellAggregate> cells;
  cells.reserve(grid.num_cells());
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    cells.push_back(ex::empty_cell_aggregate(grid, c));
  }
  const ex::RunScenarioOptions options;  // what run_sweep's workers pass
  const std::size_t total = grid.num_runs();
  std::uint64_t block = 0;
  for (std::size_t first = 0; first < total; ++block) {
    std::vector<ex::ScenarioSpec> specs;
    {
      Scope s(&tr, "grid.spec", block);
      specs.push_back(grid.spec_for_run(first));
      if (ex::LaneExecutor::eligible(specs[0], options)) {
        const std::size_t cell = grid.cell_of_run(first);
        while (specs.size() < ccd::kLaneWidth &&
               first + specs.size() < total &&
               grid.cell_of_run(first + specs.size()) == cell) {
          specs.push_back(grid.spec_for_run(first + specs.size()));
        }
      }
    }
    const bool lanes = specs.size() > 1;
    probe_world(specs, lanes, block, tr, tally);
    std::vector<ex::ScenarioOutcome> outcomes;
    if (lanes) {
      Scope s(&tr, "engine.lane", block);
      outcomes = ex::LaneExecutor::run_block(specs, options);
    } else {
      Scope s(&tr, "engine.scalar", block);
      outcomes.push_back(ex::WorldFactory::run_scenario(specs[0], options));
    }
    probe_phase2(specs, outcomes, block, tr, tally);

    std::vector<ex::RunRecord> records(specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      ex::RunRecord& rec = records[k];
      rec.run_index = first + k;
      rec.cell_index = grid.cell_of_run(rec.run_index);
      rec.spec = std::move(specs[k]);
      rec.summary = std::move(outcomes[k].summary);
      rec.mh = std::move(outcomes[k].mh);
      rec.sync = outcomes[k].sync;
      rec.perf.engine = outcomes[k].counters;
      tally.counters.add(rec.perf.engine);
      if (!rec.mh.error.empty()) ++tally.error_runs;
    }
    {
      Scope s(&tr, "aggregate.fold", block);
      for (const ex::RunRecord& rec : records) {
        ex::accumulate_run(cells[rec.cell_index], rec);
      }
    }
    tally.runs += records.size();
    if (lanes) {
      tally.lane_runs += records.size();
      ++tally.lane_blocks;
    }
    first += records.size();
  }
  return cells;
}

double total_ns(const std::map<std::string, LayerTime>& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : static_cast<double>(it->second.total_ns);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Layers sweep_layers(const std::map<std::string, LayerTime>& t,
                    const SweepTally& tally) {
  const double runs = static_cast<double>(tally.runs);
  const double lane_runs = static_cast<double>(tally.lane_runs);
  const double scalar_runs = runs - lane_runs;
  const double lane_ns = total_ns(t, "engine.lane");
  const double scalar_ns = total_ns(t, "engine.scalar");
  const ccd::obs::EngineCounters& ec = tally.counters;
  Layers l;
  l["grid.spec_us_per_run"] = ratio(total_ns(t, "grid.spec"), runs) / 1e3;
  l["world.topology_us_per_run"] =
      ratio(total_ns(t, "world.topology"), runs) / 1e3;
  l["world.diameter_us_per_call"] =
      ratio(total_ns(t, "world.diameter"),
            static_cast<double>(tally.diameter_calls)) / 1e3;
  l["world.make_us_per_run"] =
      ratio(static_cast<double>(tally.make_est_ns), runs) / 1e3;
  l["engine.lane_us_per_run"] = ratio(lane_ns, lane_runs) / 1e3;
  l["engine.scalar_us_per_run"] = ratio(scalar_ns, scalar_runs) / 1e3;
  l["engine.lane_run_share"] = ratio(lane_runs, runs);
  l["engine.lane_fill"] =
      ratio(lane_runs, static_cast<double>(tally.lane_blocks)) /
      static_cast<double>(ccd::kLaneWidth);
  l["engine.ns_per_round"] =
      ratio(lane_ns + scalar_ns, static_cast<double>(ec.rounds));
  l["engine.rounds"] = static_cast<double>(ec.rounds);
  l["engine.messages_sent"] = static_cast<double>(ec.messages_sent);
  l["engine.messages_delivered"] = static_cast<double>(ec.messages_delivered);
  l["engine.collisions"] = static_cast<double>(ec.collisions);
  l["engine.crashes"] =
      static_cast<double>(ec.crashes_before_send + ec.crashes_after_send);
  l["engine.cm_advice_calls"] = static_cast<double>(ec.cm_advice_calls);
  l["engine.cd_advice_calls"] = static_cast<double>(ec.cd_advice_calls);
  l["aggregate.fold_us_per_run"] =
      ratio(total_ns(t, "aggregate.fold"), runs) / 1e3;
  return l;
}

void add_render_times(const std::map<std::string, LayerTime>& t, Layers& l) {
  l["render.json_ms"] = total_ns(t, "render.json") / 1e6;
  l["render.csv_ms"] = total_ns(t, "render.csv") / 1e6;
  l["render.dist_ms"] = total_ns(t, "render.dist") / 1e6;
}

std::size_t size_of(const Rendered& r) {
  return r.json.size() + r.csv.size() + r.dist.size();
}

/// Merged bytes must equal the single-process render, byte for byte.
std::string compare_with(const Rendered& want, const Rendered& r) {
  if (r.json != want.json) return "merged JSON differs from single-process";
  if (r.csv != want.csv) return "merged CSV differs from single-process";
  if (r.dist != want.dist) return "merged dist differs from single-process";
  return "";
}

/// consensus / multihop: run_sweep (untraced) or traced_sweep, then
/// aggregate and render every grid of the workload.
void sweep_pipeline(const Setup& setup, const Config& c, Tracer* tr,
                    Rep& rep) {
  ReportHash hash;
  SweepTally tally;
  std::size_t bytes = 0;
  std::uint64_t stats_bytes = 0;
  const std::size_t first_span = tr ? tr->spans().size() : 0;
  ccd::obs::RunTimer timer;
  {
    Scope rep_span(tr, "rep");
    for (std::size_t g = 0; g < setup.grids.size(); ++g) {
      const ex::SweepGrid& grid = setup.grids[g];
      std::vector<ex::CellAggregate> cells;
      if (tr) {
        Scope s(tr, "sweep", g);
        cells = traced_sweep(grid, *tr, tally);
      } else {
        ccd::obs::SweepPerf perf;
        ex::SweepOptions options;
        options.threads = 1;
        options.perf = &perf;
        const std::vector<ex::RunRecord> records =
            ex::run_sweep(grid, options);
        for (const ex::RunRecord& r : records) {
          if (!r.mh.error.empty()) ++rep.error_runs;
        }
        cells = ex::aggregate(grid, records);
        append_cell_times(perf, rep.cell_ns);
      }
      Rendered r = render(grid, cells, tr);
      maybe_corrupt(c, r);
      hash.add(r);
      if (tr) {
        bytes += size_of(r);
        stats_bytes += ex::stats_bytes_retained(cells);
      }
    }
  }
  rep.wall_s = static_cast<double>(timer.elapsed_ns()) / 1e9;
  rep.hashes = hash.value();
  if (tr) {
    rep.error_runs = tally.error_runs;
    const auto times = tr->layer_times(first_span);
    rep.layers = sweep_layers(times, tally);
    rep.layers["aggregate.stats_bytes"] = static_cast<double>(stats_bytes);
    rep.layers["render.bytes"] = static_cast<double>(bytes);
    add_render_times(times, rep.layers);
  }
}

/// report: K in-process shards with checkpoints, resume from those
/// checkpoints, write and parse the shard reports, merge, render.
std::string report_pipeline(const Setup& setup, const Config& c,
                            const Reference& ref, Tracer* tr,
                            const std::vector<std::string>& ckpt, Rep& rep) {
  Scope rep_span(tr, "rep");
  std::string error;
  for (std::size_t i = 0; i < setup.shards.size(); ++i) {
    ccd::obs::SweepPerf perf;
    ex::ShardRunOptions options;
    options.sweep.threads = 1;
    options.sweep.perf = &perf;
    options.sweep.on_record = [&rep](const ex::RunRecord& r) {
      if (!r.mh.error.empty()) ++rep.error_runs;
    };
    options.checkpoint_path = ckpt[i];
    Scope s(tr, "shard.run", i);
    if (!ex::run_shard(setup.shards[i], options, &error)) {
      return "run_shard: " + error;
    }
    s.close();
    append_cell_times(perf, rep.cell_ns);
  }
  if (tr) {
    std::uint64_t bytes = 0;
    for (const std::string& path : ckpt) bytes += fs::file_size(path);
    rep.layers["shard.checkpoint_bytes"] = static_cast<double>(bytes);
  }
  std::vector<ex::ShardReport> resumed;
  for (std::size_t i = 0; i < setup.shards.size(); ++i) {
    ex::ShardRunOptions options;
    options.sweep.threads = 1;
    options.checkpoint_path = ckpt[i];
    options.resume = true;
    Scope s(tr, "shard.resume", i);
    std::optional<ex::ShardReport> report =
        ex::run_shard(setup.shards[i], options, &error);
    if (!report) return "resume run_shard: " + error;
    resumed.push_back(std::move(*report));
  }
  std::vector<std::string> texts;
  {
    Scope s(tr, "shard.report_write");
    for (const ex::ShardReport& r : resumed) texts.push_back(r.to_json());
  }
  std::vector<ex::ShardReport> parsed;
  {
    Scope s(tr, "shard.report_parse");
    for (const std::string& text : texts) {
      std::optional<ex::ShardReport> r = ex::ShardReport::from_json(text, &error);
      if (!r) return "ShardReport::from_json: " + error;
      parsed.push_back(std::move(*r));
    }
  }
  std::optional<ex::MergeResult> merged;
  {
    Scope s(tr, "shard.merge");
    merged = ex::merge_shard_reports(parsed, &error);
  }
  if (!merged) return "merge_shard_reports: " + error;
  Rendered r = render(merged->grid, merged->cells, tr);
  maybe_corrupt(c, r);
  ReportHash hash;
  hash.add(r);
  rep.hashes = hash.value();
  if (tr) {
    std::uint64_t bytes = 0;
    for (const std::string& text : texts) bytes += text.size();
    rep.layers["shard.report_bytes"] = static_cast<double>(bytes);
    rep.layers["render.bytes"] = static_cast<double>(size_of(r));
  }
  return compare_with(ref.grids[0], r);
}

/// fleet: each multihop grid through run_dispatch over local ccd_sweep
/// workers, then render the merged cells.
std::string fleet_pipeline(const Setup& setup, const Config& c,
                           const Reference& ref, Tracer* tr,
                           const std::string& work_dir, Rep& rep) {
  Scope rep_span(tr, "rep");
  ReportHash hash;
  ccd::obs::EngineCounters counters;
  ccd::obs::PerfDispatch stats;  // summed over the dispatches
  double overhead_ns = 0, permille = 0;
  std::size_t bytes = 0;
  for (std::size_t g = 0; g < setup.grids.size(); ++g) {
    const ex::SweepGrid& grid = setup.grids[g];
    ex::DispatchOptions options;
    options.workers = kFleetWorkers;
    options.stale_after_secs = kFleetStaleAfterSecs;
    options.work_dir = work_dir;
    options.worker_bin = c.worker_bin;
    options.worker_args = {"--threads", "1"};
    options.worker_perf = true;  // per-cell times come from worker sidecars
    std::string error;
    std::optional<ex::DispatchResult> res;
    {
      Scope s(tr, "dispatch.run", g);
      res = ex::run_dispatch(grid, options, &error);
    }
    if (!res) return "run_dispatch: " + error;
    Rendered r = render(res->merged.grid, res->merged.cells, tr);
    maybe_corrupt(c, r);
    hash.add(r);
    bytes += size_of(r);
    if (std::string diff = compare_with(ref.grids[g], r); !diff.empty()) {
      return diff;
    }
    if (!res->perf) return "dispatch returned no perf sidecar";
    counters.add(res->perf->counters);
    // A worker's sidecar gives every run of a lane block the block's span,
    // so a lane cell's total counts its one block (kMultihopSeeds <= 64
    // seeds) once per seed; a scalar cell's runs simply add up.
    for (const ccd::obs::PerfCell& cell : res->perf->cells) {
      const bool lanes =
          grid.seeds_per_cell > 1 &&
          ex::LaneExecutor::eligible(grid.spec_for_cell(cell.cell_index));
      rep.cell_ns.push_back(lanes ? cell.total_ns / grid.seeds_per_cell
                                  : cell.total_ns);
    }
    const ccd::obs::PerfDispatch& st = res->stats;
    stats.batches += st.batches;
    stats.steals += st.steals;
    stats.requeues += st.requeues;
    stats.duplicate_cells += st.duplicate_cells;
    double busy_ns = 0;
    for (const ccd::obs::PerfDispatchSlot& slot : st.slots) {
      busy_ns += static_cast<double>(slot.busy_ns);
      permille += static_cast<double>(slot.busy_permille);
      stats.slots.push_back(slot);
    }
    overhead_ns += static_cast<double>(st.wall_ns) -
                   ratio(busy_ns, static_cast<double>(st.slots.size()));
  }
  rep.hashes = hash.value();
  if (!(counters == ref.counters)) {
    return "fleet engine counters differ from single-process";
  }
  if (tr) {
    rep.layers["dispatch.batches"] = static_cast<double>(stats.batches);
    rep.layers["dispatch.steals"] = static_cast<double>(stats.steals);
    rep.layers["dispatch.requeues"] = static_cast<double>(stats.requeues);
    rep.layers["dispatch.duplicate_cells"] =
        static_cast<double>(stats.duplicate_cells);
    rep.layers["dispatch.busy_permille"] =
        ratio(permille, static_cast<double>(stats.slots.size()));
    rep.layers["dispatch.overhead_ms"] = overhead_ns / 1e6;
    rep.layers["render.bytes"] = static_cast<double>(bytes);
  }
  return "";
}

}  // namespace

std::string to_hex(const Hashes& h) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx,%016llx,%016llx",
                static_cast<unsigned long long>(h.json),
                static_cast<unsigned long long>(h.csv),
                static_cast<unsigned long long>(h.dist));
  return buf;
}

std::optional<Setup> make_setup(const Config& c, std::string* error) {
  Setup s;
  if (c.workload == "consensus") {
    s.grids.push_back(consensus_grid(c));
  } else if (c.workload == "multihop") {
    s.grids = multihop_grids(c);
  } else if (c.workload == "report") {
    s.kind = Kind::kReport;
    s.grids.push_back(report_grid(c));
  } else if (c.workload == "fleet") {
    s.kind = Kind::kFleet;
    s.grids = multihop_grids(c);
  } else {
    *error = "unknown workload '" + c.workload + "'";
    return std::nullopt;
  }
  for (const ex::SweepGrid& grid : s.grids) {
    if (auto why = grid.validate()) {
      *error = "grid fails validate(): " + *why;
      return std::nullopt;
    }
    g_probe_sink += grid.fingerprint();
    // Each spec is expanded as the sweep does, one at a time, not stored.
    for (std::size_t r = 0; r < grid.num_runs(); ++r) {
      g_probe_sink += grid.spec_for_run(r).seed;
    }
    s.runs += grid.num_runs();
    s.cells += grid.num_cells();
  }
  if (s.kind == Kind::kReport) {
    s.shards = ex::ShardPlanner::plan(s.grids[0], kReportShards);
  }
  if (s.kind == Kind::kFleet) {
    struct stat st {};
    if (::stat(c.worker_bin.c_str(), &st) != 0 || !S_ISREG(st.st_mode) ||
        ::access(c.worker_bin.c_str(), X_OK) != 0) {
      *error = "worker binary '" + c.worker_bin + "' is not executable";
      return std::nullopt;
    }
  }
  return s;
}

Reference make_reference(const Setup& setup, Tracer* tr) {
  Reference ref;
  ReportHash hash;
  SweepTally tally;
  std::uint64_t stats_bytes = 0;
  const std::size_t first_span = tr ? tr->spans().size() : 0;
  for (const ex::SweepGrid& grid : setup.grids) {
    std::vector<ex::CellAggregate> cells;
    if (tr) {
      Scope s(tr, "reference");
      cells = traced_sweep(grid, *tr, tally);
      stats_bytes += ex::stats_bytes_retained(cells);
    } else {
      ex::SweepOptions options;
      options.threads = 1;
      const std::vector<ex::RunRecord> records = ex::run_sweep(grid, options);
      for (const ex::RunRecord& r : records) ref.counters.add(r.perf.engine);
      cells = ex::aggregate(grid, records);
    }
    ref.grids.push_back(render(grid, cells, nullptr));
    hash.add(ref.grids.back());
  }
  ref.hashes = hash.value();
  if (tr) {
    ref.counters = tally.counters;
    ref.layers = sweep_layers(tr->layer_times(first_span), tally);
    ref.layers["aggregate.stats_bytes"] = static_cast<double>(stats_bytes);
  }
  return ref;
}

Rep run_rep(const Setup& setup, const Config& c, const Reference* ref,
            Tracer* tr, std::size_t rep_id) {
  Rep rep;
  rep.runs = setup.runs;
  if (setup.kind == Kind::kSweep) {
    sweep_pipeline(setup, c, tr, rep);
    return rep;
  }
  const std::size_t first_span = tr ? tr->spans().size() : 0;
  const fs::path work =
      fs::path(c.out_dir) / ("work-" + c.workload + "-" + std::to_string(rep_id));
  fs::remove_all(work);
  fs::create_directories(work);
  ccd::obs::RunTimer timer;
  if (setup.kind == Kind::kReport) {
    std::vector<std::string> ckpt;
    for (std::size_t i = 0; i < setup.shards.size(); ++i) {
      ckpt.push_back((work / ("shard-" + std::to_string(i) + ".ckpt")).string());
    }
    rep.failure = report_pipeline(setup, c, *ref, tr, ckpt, rep);
  } else {
    rep.failure = fleet_pipeline(setup, c, *ref, tr, work.string(), rep);
  }
  rep.wall_s = static_cast<double>(timer.elapsed_ns()) / 1e9;
  fs::remove_all(work);
  if (!tr) return rep;
  // This rep's spans only: the reference sweep's are older.
  const auto times = tr->layer_times(first_span);
  add_render_times(times, rep.layers);
  if (setup.kind == Kind::kReport) {
    rep.layers["shard.run_ms"] = total_ns(times, "shard.run") / 1e6;
    rep.layers["shard.resume_ms"] = total_ns(times, "shard.resume") / 1e6;
    rep.layers["shard.report_write_ms"] =
        total_ns(times, "shard.report_write") / 1e6;
    rep.layers["shard.report_parse_ms"] =
        total_ns(times, "shard.report_parse") / 1e6;
    rep.layers["shard.merge_ms"] = total_ns(times, "shard.merge") / 1e6;
  }
  return rep;
}

}  // namespace perfbench
