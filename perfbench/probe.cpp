/// \file probe.cpp
/// In-process helper of the repository benchmark (perfbench/run.py).
///
///   perfbench_probe walk   <input.json>   trace-walk reference counts
///   perfbench_probe verify <input.json>   recompute jobs with run_sim_job
///   perfbench_probe layers <input.json>   the traced run's layer numbers
///
/// Every mode reads one JSON document and prints one JSON document on
/// stdout.  `walk` and `verify` compute the facts run.py checks the
/// shipped binaries against; `layers` replays a workload's jobs through
/// the modules' public functions twice (spans off, then on), records a
/// span around every call, writes the spans out at the end and derives
/// the per-layer metrics from span self times and counts.  No span is
/// recorded inside the library itself.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bpred/predictor.h"
#include "core/arch_config.h"
#include "core/checkpoint.h"
#include "core/processor.h"
#include "harness/experiment.h"
#include "harness/result_store.h"
#include "harness/sim_service.h"
#include "interconnect/bus_set.h"
#include "mem/hierarchy.h"
#include "mem/lsq.h"
#include "stats/metrics.h"
#include "trace/pack/pack_reader.h"
#include "trace/pack/pack_writer.h"
#include "trace/registry.h"
#include "util/json.h"

namespace {

using namespace ringclu;
using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
  std::exit(2);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- input --------------------------------------------------------------

const JsonValue& field(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) die("input lacks '" + std::string(key) + "'");
  return *value;
}

std::uint64_t uint_field(const JsonValue& object, std::string_view key) {
  return static_cast<std::uint64_t>(field(object, key).number);
}

std::string string_field(const JsonValue& object, std::string_view key,
                         std::string fallback = {}) {
  const JsonValue* value = object.find(key);
  return value == nullptr ? fallback : value->string;
}

JsonValue read_input(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::optional<JsonValue> doc = json_parse(text.str());
  if (!doc || !doc->is_object()) die(path + ": not a JSON object");
  return *doc;
}

/// One simulation job as run.py describes it.  \c source / \c source_seed
/// name the synthetic stream behind a "trace:" pack benchmark (equal to
/// benchmark / seed for live-generator jobs).
struct JobSpec {
  std::string config;
  std::string benchmark;
  std::string source;
  std::uint64_t source_seed = 0;
  RunParams params;
};

std::vector<JobSpec> read_jobs(const JsonValue& doc) {
  std::vector<JobSpec> jobs;
  for (const JsonValue& item : field(doc, "jobs").array) {
    JobSpec job;
    job.config = string_field(item, "config");
    job.benchmark = string_field(item, "benchmark");
    job.params.instrs = uint_field(item, "instrs");
    job.params.warmup = uint_field(item, "warmup");
    job.params.seed = uint_field(item, "seed");
    job.source = string_field(item, "source", job.benchmark);
    job.source_seed = item.find("source_seed") != nullptr
                          ? uint_field(item, "source_seed")
                          : job.params.seed;
    if (!ArchConfig::try_preset(job.config)) die("bad preset " + job.config);
    jobs.push_back(job);
  }
  return jobs;
}

SimJob to_sim_job(const JobSpec& spec) {
  return SimJob{ArchConfig::preset(spec.config), spec.benchmark, spec.params};
}

// ---- walk ---------------------------------------------------------------

/// Cumulative committed-load/store counts of each job's trace at every
/// position a measured window can start or end at: the warmup loop stops
/// within one commit burst past its budget, so the window starts in
/// [warmup, warmup + commit_width) and is at most commit_width - 1 longer
/// than the budget.
int run_walk(const JsonValue& doc) {
  if (const std::string dir = string_field(doc, "trace_dir"); !dir.empty()) {
    TraceBenchmarkRegistry::global().add_dir(dir);
  }
  JsonWriter out;
  out.begin_object().key("jobs").begin_array();
  for (const JobSpec& job : read_jobs(doc)) {
    const std::uint64_t width = static_cast<std::uint64_t>(
        ArchConfig::preset(job.config).commit_width);
    const std::uint64_t start = job.params.warmup;
    const std::uint64_t end_limit =
        start + job.params.instrs + 2 * width;
    std::unique_ptr<TraceSource> trace =
        make_workload_trace(job.benchmark, job.params.seed);
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::vector<std::uint64_t> seen_l1;
    std::vector<std::uint64_t> seen_l2;
    out.begin_object();
    out.key("benchmark").value(job.benchmark);
    out.key("seed").value(job.params.seed);
    out.key("prefix").begin_array();
    MicroOp op;
    for (std::uint64_t pos = 0; pos <= end_limit; ++pos) {
      const bool window_start = pos >= start && pos < start + width;
      const bool window_end = pos >= start + job.params.instrs;
      if (window_start || window_end) {
        out.begin_array().value(pos).value(loads).value(stores).end_array();
      }
      if (pos == end_limit || !trace->next(op)) break;
      loads += op.is_load() ? 1 : 0;
      stores += op.is_store() ? 1 : 0;
      if (pos < start && op.is_mem()) {
        seen_l1.push_back(op.mem_addr / 32);
        seen_l2.push_back(op.mem_addr / 64);
      }
    }
    out.end_array();
    // Distinct L1D (32 B) and L2 (64 B) lines the warmup touches: how far
    // warmup can fill the modelled caches before measurement starts.
    for (std::vector<std::uint64_t>* lines : {&seen_l1, &seen_l2}) {
      std::sort(lines->begin(), lines->end());
      lines->erase(std::unique(lines->begin(), lines->end()), lines->end());
    }
    out.key("warmup_l1d_lines").value(std::uint64_t{seen_l1.size()});
    out.key("warmup_l2_lines").value(std::uint64_t{seen_l2.size()});
    out.end_object();
  }
  out.end_array().end_object();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---- verify -------------------------------------------------------------

/// Worker threads of the recomputation (the daemon under test runs two).
constexpr std::size_t kVerifyThreads = 2;

int run_verify(const JsonValue& doc) {
  const std::vector<JobSpec> jobs = read_jobs(doc);
  std::vector<std::string> rendered(jobs.size());
  const std::size_t threads = std::min(kVerifyThreads, jobs.size());
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < jobs.size(); i += threads) {
        rendered[i] = result_to_json(run_sim_job(to_sim_job(jobs[i])));
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  std::string out = "{\"results\":[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i != 0) out += ",";
    out += rendered[i];
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

// ---- spans --------------------------------------------------------------

/// One traced call: name, start, end, parent span (-1 for a root) and the
/// job it belongs to (-1 outside any job).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int job = -1;
  std::uint64_t count = 1;  ///< operations the span covers
};

/// In-memory span recorder; disabled instances record nothing, so the
/// untraced pass runs the same code with no recording cost.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t count = 1)
        : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      Span span;
      span.name = name;
      span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
      span.job = tracer_.job_;
      span.count = count;
      tracer_.spans_.push_back(span);
      tracer_.open_.push_back(index_);
      tracer_.spans_[static_cast<std::size_t>(index_)].start_ns = now_ns();
    }
    ~Scope() {
      if (index_ < 0) return;
      tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void set_job(int job) { job_ = job; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: its duration minus the part its children cover.
  [[nodiscard]] std::vector<std::int64_t> self_times() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -=
            span.end_ns - span.start_ns;
      }
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
          << ",\"job\":" << span.job << ",\"count\":" << span.count << "}\n";
    }
  }

 private:
  bool enabled_;
  int job_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Totals per span name: summed self time and summed operation count.
struct NameTotals {
  std::int64_t self_ns = 0;
  std::uint64_t spans = 0;
  std::uint64_t ops = 0;
};

std::map<std::string, NameTotals> totals_by_name(const Tracer& tracer) {
  std::map<std::string, NameTotals> totals;
  const std::vector<std::int64_t> self = tracer.self_times();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    NameTotals& entry = totals[tracer.spans()[i].name];
    entry.self_ns += self[i];
    entry.spans += 1;
    entry.ops += tracer.spans()[i].count;
  }
  return totals;
}

// ---- layers -------------------------------------------------------------

struct ReplayOutcome {
  std::vector<SimResult> results;
  double wall_seconds = 0.0;
};

/// Replays \p jobs with a span around every module call: warm up, save
/// the warmup checkpoint into \p ckpt_dir, restore it into a fresh
/// processor and stream, and measure there.  For warm-replay that is the
/// set-up's cold pass followed by the timed pass; for the cold workloads
/// the checkpoint round trip is extra work the sweep does not do, kept so
/// every workload reports checkpoint costs on its own state.  Restored
/// runs are bit-identical to cold ones, which the counter checks confirm.
ReplayOutcome replay(Tracer& tracer, const std::vector<JobSpec>& jobs,
                     const std::string& ckpt_dir) {
  ReplayOutcome outcome;
  std::filesystem::create_directories(ckpt_dir);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& job = jobs[i];
    const ArchConfig config = ArchConfig::preset(job.config);
    tracer.set_job(static_cast<int>(i));
    Tracer::Scope job_span(tracer, "job");
    std::unique_ptr<TraceSource> trace;
    {
      Tracer::Scope span(tracer, "trace.open");
      trace = make_workload_trace(job.benchmark, job.params.seed);
    }
    const CheckpointExpectation expect{config.fingerprint(),
                                       std::string(trace->name()),
                                       job.params.seed};
    const std::string path =
        ckpt_dir + "/" +
        warmup_checkpoint_name(expect.config_fingerprint, expect.workload,
                               job.params.warmup, job.params.seed);
    auto processor = std::make_unique<Processor>(config, job.params.seed);
    {
      Tracer::Scope span(tracer, "core.warmup", job.params.warmup);
      processor->warmup(*trace, job.params.warmup);
    }
    {
      Tracer::Scope span(tracer, "core.checkpoint_save");
      CheckpointMeta meta;
      meta.seed = job.params.seed;
      std::string error;
      if (!save_checkpoint(path, *processor, *trace, meta, &error)) {
        die("checkpoint save failed: " + error);
      }
    }
    // Timed path: a fresh processor and stream restored from the file.
    processor = std::make_unique<Processor>(config, job.params.seed);
    trace = make_workload_trace(job.benchmark, job.params.seed);
    {
      Tracer::Scope span(tracer, "core.checkpoint_restore");
      std::string error;
      if (!restore_checkpoint(path, *processor, *trace, expect, nullptr,
                              &error)) {
        die("checkpoint restore failed: " + error);
      }
    }
    SimResult result;
    {
      Tracer::Scope span(tracer, "core.measure", job.params.instrs);
      result = processor->measure(*trace, job.params.instrs);
    }
    result.config_name = job.config;
    result.benchmark = keyed_workload_name(job.benchmark);
    outcome.results.push_back(std::move(result));
  }
  tracer.set_job(-1);
  outcome.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return outcome;
}

/// The synthetic op stream behind \p job (what a pack of it records).
std::vector<MicroOp> source_ops(const JobSpec& job) {
  std::unique_ptr<TraceSource> trace =
      make_workload_trace(job.source, job.source_seed);
  std::vector<MicroOp> ops;
  const std::uint64_t total = job.params.warmup + job.params.instrs;
  ops.reserve(total);
  MicroOp op;
  while (ops.size() < total && trace->next(op)) ops.push_back(op);
  return ops;
}

double per(std::int64_t ns, std::uint64_t count, double scale) {
  return count == 0 ? 0.0 : static_cast<double>(ns) / scale /
                                static_cast<double>(count);
}

int run_layers(const JsonValue& doc) {
  const std::vector<JobSpec> jobs = read_jobs(doc);
  const bool warm = field(doc, "warm").boolean;
  const std::string work = string_field(doc, "work_dir");
  const std::string trace_dir = string_field(doc, "trace_dir");
  const std::string spec_text = string_field(doc, "spec_text");
  if (!trace_dir.empty()) TraceBenchmarkRegistry::global().add_dir(trace_dir);
  std::filesystem::create_directories(work);

  // 1. The job replay, untraced then traced; the gap is the overhead.
  Tracer off(false);
  const ReplayOutcome untraced = replay(off, jobs, work + "/ckpt_off");
  Tracer tracer(true);
  const ReplayOutcome traced = replay(tracer, jobs, work + "/ckpt_on");
  bool counters_equal = untraced.results.size() == traced.results.size();
  for (std::size_t i = 0; counters_equal && i < traced.results.size(); ++i) {
    counters_equal =
        untraced.results[i].counters == traced.results[i].counters;
  }

  // 2. Stand-alone layer probes over each distinct source stream.
  SimCounters sum;
  for (const SimResult& result : traced.results) {
    const SimCounters& c = result.counters;
    sum.cycles += c.cycles;
    sum.committed += c.committed;
    sum.comms += c.comms;
    sum.comm_contention_sum += c.comm_contention_sum;
    sum.nready_sum += c.nready_sum;
    sum.mispredicts += c.mispredicts;
    sum.l1d_misses += c.l1d_misses;
    sum.l2_misses += c.l2_misses;
    sum.lsq_stall_cycles += c.lsq_stall_cycles;
    sum.steer_stall_cycles += c.steer_stall_cycles;
  }
  std::map<std::string, const JobSpec*> streams;
  for (const JobSpec& job : jobs) {
    streams.emplace(job.source + "#" + std::to_string(job.source_seed), &job);
  }
  std::uint64_t pack_bytes = 0;
  for (const auto& [key, job_ptr] : streams) {
    const JobSpec& job = *job_ptr;
    const ArchConfig config = ArchConfig::preset(job.config);
    std::vector<MicroOp> ops;
    {
      Tracer::Scope span(tracer, "trace.synth",
                         job.params.warmup + job.params.instrs);
      ops = source_ops(job);
    }
    const std::string pack_path = work + "/probe.rclp";
    {
      Tracer::Scope span(tracer, "trace.pack_write", ops.size());
      TracePackWriter writer(pack_path);
      for (const MicroOp& op : ops) writer.append(op);
      std::string error;
      if (!writer.close(&error)) die("pack write failed: " + error);
    }
    pack_bytes += std::filesystem::file_size(pack_path);
    std::string error;
    std::unique_ptr<TracePackReader> reader =
        TracePackReader::open(pack_path, &error);
    if (!reader) die("pack open failed: " + error);
    CheckpointWriter position;
    {
      Tracer::Scope span(tracer, "trace.pack_next", ops.size());
      MicroOp op;
      for (std::size_t i = 0; i < ops.size() && reader->next(op); ++i) {
        if (i + 1 == job.params.warmup) reader->save_pos(position);
      }
    }
    std::unique_ptr<TracePackReader> seeker =
        TracePackReader::open(pack_path, &error);
    if (!seeker) die("pack open failed: " + error);
    {
      Tracer::Scope span(tracer, "trace.pack_seek");
      CheckpointReader in(position.bytes());
      seeker->restore_pos(in);
    }

    // LSQ at the preset's capacity: each memory op allocates in program
    // order, its address becomes known a quarter-queue later, loads query
    // once their address is set, and the oldest entry retires when full.
    std::vector<const MicroOp*> mem_ops;
    for (const MicroOp& op : ops) {
      if (op.is_mem()) mem_ops.push_back(&op);
    }
    {
      LoadStoreQueue lsq(static_cast<std::size_t>(config.lsq_size));
      const std::size_t lag = static_cast<std::size_t>(config.lsq_size) / 4;
      std::uint64_t loads = 0;
      for (const MicroOp* op : mem_ops) loads += op->is_load() ? 1 : 0;
      Tracer::Scope span(tracer, "mem.lsq", loads);
      std::uint64_t oldest = 1;
      for (std::size_t i = 0; i < mem_ops.size() + lag; ++i) {
        if (i < mem_ops.size()) {
          if (lsq.full()) (void)lsq.release(oldest++);
          lsq.allocate(i + 1, mem_ops[i]->is_store());
        }
        if (i < lag) continue;
        const std::size_t k = i - lag;
        if (k + 1 < oldest) continue;
        lsq.set_address(k + 1, mem_ops[k]->mem_addr, mem_ops[k]->mem_size);
        if (mem_ops[k]->is_load()) {
          (void)lsq.query_load(k + 1);
        }
      }
    }
    {
      MemoryHierarchy hierarchy(config.mem);
      Tracer::Scope span(tracer, "mem.hierarchy", mem_ops.size());
      for (const MicroOp* op : mem_ops) {
        (void)hierarchy.data_access(op->mem_addr);
      }
    }
    {
      FrontEnd frontend(config.bpred);
      std::uint64_t branches = 0;
      for (const MicroOp& op : ops) branches += op.is_branch() ? 1 : 0;
      Tracer::Scope span(tracer, "bpred.predict", branches);
      for (const MicroOp& op : ops) {
        if (op.is_branch()) {
          (void)frontend.predict_and_train(op);
        }
      }
    }
  }
  // Buses injected at the workload's measured comms per cycle.
  {
    const ArchConfig config = ArchConfig::preset(jobs.front().config);
    BusSet buses(config.num_clusters, config.num_buses,
                 config.bus_orientation(), config.hop_latency);
    const double rate = sum.cycles == 0
                            ? 0.0
                            : static_cast<double>(sum.comms) /
                                  static_cast<double>(sum.cycles);
    std::vector<BusDelivery> deliveries;
    const std::uint64_t ticks = 200000;
    double credit = 0.0;
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    Tracer::Scope span(tracer, "interconnect.tick", ticks);
    for (std::uint64_t t = 0; t < ticks; ++t) {
      credit += rate;
      while (credit >= 1.0) {
        credit -= 1.0;
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int src = static_cast<int>((state >> 33) %
                                         static_cast<std::uint64_t>(
                                             config.num_clusters));
        const int hop = 1 + static_cast<int>((state >> 45) %
                                             static_cast<std::uint64_t>(
                                                 config.num_clusters - 1));
        (void)buses.try_inject(src, (src + hop) % config.num_clusters, t);
      }
      deliveries.clear();
      buses.tick(deliveries);
    }
  }

  // 3. Harness: sweep expansion, store put/get, service overhead.
  std::vector<SimJob> sim_jobs;
  for (const JobSpec& job : jobs) sim_jobs.push_back(to_sim_job(job));
  if (!spec_text.empty()) {
    const int reps = 50;
    Tracer::Scope span(tracer, "harness.expand", reps);
    for (int r = 0; r < reps; ++r) {
      std::optional<ExperimentSpec> spec = ExperimentSpec::from_json(spec_text);
      if (!spec) die("bad sweep spec");
      (void)spec->expand();
    }
  }
  {
    const std::string store_path = work + "/probe_store.tsv";
    std::filesystem::remove(store_path);
    {
      std::unique_ptr<ResultStore> store =
          make_result_store(StoreBackend::Tsv, store_path, false);
      for (std::size_t i = 0; i < sim_jobs.size(); ++i) {
        Tracer::Scope span(tracer, "harness.store_put");
        store->put(sim_cache_key(sim_jobs[i]), traced.results[i]);
      }
    }
    std::unique_ptr<ResultStore> store =
        make_result_store(StoreBackend::Tsv, store_path, false);
    for (std::size_t i = 0; i < sim_jobs.size(); ++i) {
      Tracer::Scope span(tracer, "harness.store_get");
      const std::optional<SimResult> got =
          store->get(sim_cache_key(sim_jobs[i]));
      if (!got || serialize_result(*got) !=
                      serialize_result(traced.results[i])) {
        counters_equal = false;
      }
    }
  }
  std::size_t simulations = 0;
  std::size_t hits = 0;
  std::size_t restored = 0;
  double service_overhead = 0.0;
  {
    SimServiceOptions options;
    options.threads = 1;
    if (warm) options.checkpoint.dir = work + "/ckpt_on";
    SimService service(make_result_store(StoreBackend::Memory, "", false),
                       options);
    const auto start = Clock::now();
    std::vector<JobHandle> handles;
    {
      Tracer::Scope span(tracer, "harness.service", sim_jobs.size());
      handles = service.submit_batch(sim_jobs);
      for (const JobHandle& handle : handles) {
        if (handle.wait() != JobStatus::Done) die("service job failed");
      }
    }
    double job_wall = 0.0;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const SimResult& result = handles[i].result();
      job_wall += result.wall_seconds;
      restored += result.warmup_restored ? 1 : 0;
      if (!(result.counters == traced.results[i].counters)) {
        counters_equal = false;
      }
    }
    service_overhead =
        std::chrono::duration<double>(Clock::now() - start).count() -
        job_wall;
    // The same batch again: every job is a store hit.
    for (const JobHandle& handle : service.submit_batch(sim_jobs)) {
      if (handle.wait() != JobStatus::Done) die("service job failed");
    }
    simulations = service.simulations_run();
    hits = service.store_hits();
  }

  tracer.write(string_field(doc, "spans_out"));
  const std::map<std::string, NameTotals> t = totals_by_name(tracer);
  const auto total = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? NameTotals{} : it->second;
  };
  const double kinstr = static_cast<double>(sum.committed) / 1000.0;
  const auto per_kinstr = [&](std::uint64_t value) {
    return kinstr == 0 ? 0.0 : static_cast<double>(value) / kinstr;
  };
  std::uint64_t ring_committed = 0;
  std::uint64_t conv_committed = 0;
  std::int64_t ring_ns = 0;
  std::int64_t conv_ns = 0;
  {
    const std::vector<std::int64_t> self = tracer.self_times();
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& span = tracer.spans()[i];
      if (span.name != "core.measure" || span.job < 0) continue;
      const JobSpec& job = jobs[static_cast<std::size_t>(span.job)];
      const std::uint64_t committed =
          traced.results[static_cast<std::size_t>(span.job)]
              .counters.committed;
      if (job.config.rfind("Ring", 0) == 0) {
        ring_ns += self[i];
        ring_committed += committed;
      } else {
        conv_ns += self[i];
        conv_committed += committed;
      }
    }
  }

  JsonWriter out;
  out.begin_object();
  out.key("counters_equal").value(counters_equal);
  out.key("untraced_wall_s").value(untraced.wall_seconds);
  out.key("traced_wall_s").value(traced.wall_seconds);
  out.key("spans").value(static_cast<std::uint64_t>(tracer.spans().size()));
  out.key("results").begin_array();
  for (const SimResult& result : traced.results) {
    out.value(serialize_result(result));
  }
  out.end_array();
  out.key("metrics").begin_object();
  const auto metric = [&](const char* name, double value) {
    out.key(name).value(value);
  };
  metric("trace.synth_ns_per_op",
         per(total("trace.synth").self_ns, total("trace.synth").ops, 1.0));
  metric("trace.pack_ns_per_op", per(total("trace.pack_next").self_ns,
                                     total("trace.pack_next").ops, 1.0));
  metric("trace.pack_seek_ms", per(total("trace.pack_seek").self_ns,
                                   total("trace.pack_seek").spans, 1e6));
  metric("trace.pack_write_ns_per_op",
         per(total("trace.pack_write").self_ns, total("trace.pack_write").ops,
             1.0));
  metric("trace.pack_bytes_per_op",
         total("trace.pack_write").ops == 0
             ? 0.0
             : static_cast<double>(pack_bytes) /
                   static_cast<double>(total("trace.pack_write").ops));
  metric("core.warmup_s", static_cast<double>(total("core.warmup").self_ns) /
                              1e9);
  metric("core.measure_s",
         static_cast<double>(total("core.measure").self_ns) / 1e9);
  metric("core.ring.measure_ns_per_instr", per(ring_ns, ring_committed, 1.0));
  metric("core.conv.measure_ns_per_instr", per(conv_ns, conv_committed, 1.0));
  metric("core.ns_per_sim_cycle",
         per(total("core.measure").self_ns, sum.cycles, 1.0));
  metric("core.checkpoint_restore_ms",
         per(total("core.checkpoint_restore").self_ns,
             total("core.checkpoint_restore").spans, 1e6));
  metric("core.checkpoint_save_ms",
         per(total("core.checkpoint_save").self_ns,
             total("core.checkpoint_save").spans, 1e6));
  {
    std::uint64_t bytes = 0;
    std::uint64_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(work + "/ckpt_on")) {
      bytes += entry.file_size();
      ++files;
    }
    metric("core.checkpoint_bytes",
           files == 0 ? 0.0
                      : static_cast<double>(bytes) /
                            static_cast<double>(files));
  }
  metric("core.sim_cycles", static_cast<double>(sum.cycles));
  metric("mem.lsq_query_ns",
         per(total("mem.lsq").self_ns, total("mem.lsq").ops, 1.0));
  metric("mem.hierarchy_ns_per_access", per(total("mem.hierarchy").self_ns,
                                            total("mem.hierarchy").ops, 1.0));
  metric("mem.l1d_mpki", per_kinstr(sum.l1d_misses));
  metric("mem.l2_mpki", per_kinstr(sum.l2_misses));
  metric("mem.lsq_stall_per_kinstr", per_kinstr(sum.lsq_stall_cycles));
  metric("interconnect.bus_tick_ns",
         per(total("interconnect.tick").self_ns,
             total("interconnect.tick").ops, 1.0));
  metric("interconnect.comms_per_kinstr", per_kinstr(sum.comms));
  metric("interconnect.contention_per_comm",
         sum.comms == 0 ? 0.0
                        : static_cast<double>(sum.comm_contention_sum) /
                              static_cast<double>(sum.comms));
  metric("steer.stall_per_kinstr", per_kinstr(sum.steer_stall_cycles));
  metric("steer.nready_avg",
         sum.cycles == 0 ? 0.0
                         : static_cast<double>(sum.nready_sum) /
                               static_cast<double>(sum.cycles));
  metric("bpred.ns_per_branch", per(total("bpred.predict").self_ns,
                                    total("bpred.predict").ops, 1.0));
  metric("bpred.mispredicts_per_kinstr", per_kinstr(sum.mispredicts));
  metric("harness.expand_ms", per(total("harness.expand").self_ns,
                                  total("harness.expand").ops, 1e6));
  metric("harness.store_put_ms", per(total("harness.store_put").self_ns,
                                     total("harness.store_put").spans, 1e6));
  metric("harness.store_get_ms", per(total("harness.store_get").self_ns,
                                     total("harness.store_get").spans, 1e6));
  metric("harness.service_overhead_ms", service_overhead * 1e3);
  metric("harness.simulations_run", static_cast<double>(simulations));
  metric("harness.store_hits", static_cast<double>(hits));
  metric("harness.warmup_restored_runs", static_cast<double>(restored));
  metric("bench.trace_overhead_s",
         traced.wall_seconds - untraced.wall_seconds);
  out.end_object();
  out.end_object();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: perfbench_probe walk|verify|layers <input.json>\n");
    return 2;
  }
  const std::string mode = argv[1];
  const JsonValue doc = read_input(argv[2]);
  if (mode == "walk") return run_walk(doc);
  if (mode == "verify") return run_verify(doc);
  if (mode == "layers") return run_layers(doc);
  std::fprintf(stderr, "perfbench_probe: unknown mode '%s'\n", mode.c_str());
  return 2;
}
