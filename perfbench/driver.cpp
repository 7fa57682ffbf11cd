/// \file driver.cpp
/// \brief Benchmark driver: runs one named workload through the public API
///        and prints its raw samples as one JSON document on stdout.
///
/// perfbench/run.py builds this binary, runs it, and turns the samples into
/// the metrics BENCHMARK.json names; the driver computes no metric itself.
///
/// Workloads (BENCHMARK.json records why each was chosen):
///   train_b1, train_b16  the 640-128^4-8-128^4-640 training step at B=1 /
///                        B=16 (warm=1, a new input_seed per job) through an
///                        in-process api::Service with one worker;
///   serve_small          seeded dense-random 16^3 / 24^3 / 32^3 GEMMs
///                        through serve::Client -> serve::Server (one
///                        service worker) over a unix socket.
///
/// Every run first computes the cold Service::run_one oracle of each spec its
/// jobs use, outside every timed window, and checks each job against it as
/// the job completes.
/// --trace 0: ten rounds, each of set-up samples (each builds the service or
/// server from nothing and runs one warm-up job), an unloaded closed loop
/// (one job in flight) and a saturated phase (a fixed window of jobs in
/// flight).
/// --trace 1: untraced and traced jobs interleaved, plus timed calls into
/// each layer's public functions. Every call is a span (name, request,
/// parent, start, end) kept in memory and printed at exit.
///
/// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  --scratch <dir>   (directory for the server's socket)
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "common/rng.hpp"
#include "fp16/float16.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "state/snapshot.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

using namespace redmule;

namespace {

using Clock = std::chrono::steady_clock;
using fp16::Float16;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- Spans ------------------------------------------------------------------

/// In-memory span recorder. Span names are "<layer>.<call>"; run.py derives
/// the layer from the prefix and self time from the parent links.
class Tracer {
 public:
  struct Record {
    std::string name;
    uint64_t request = 0;
    int64_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(Tracer& t, size_t idx) : t_(t), idx_(idx) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    size_t idx_;
  };

  /// Starts a new request: every span opened until the next call shares its
  /// id.
  void begin_request() { ++request_; }

  Scope span(std::string name) {
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    records_.push_back(Record{std::move(name), request_, parent, now_ns(), 0});
    open_.push_back(records_.size() - 1);
    return Scope(*this, records_.size() - 1);
  }

  const std::vector<Record>& records() const { return records_; }
  double last_closed_ms(const std::string& name) const {
    for (auto it = records_.rbegin(); it != records_.rend(); ++it)
      if (it->name == name) return static_cast<double>(it->end_ns - it->start_ns) / 1e6;
    throw std::logic_error("no span " + name);
  }

 private:
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  void close(size_t idx) {
    records_[idx].end_ns = now_ns();
    open_.pop_back();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<size_t> open_;
  uint64_t request_ = 0;
};

// --- Targets: the two public entry points a job can go through --------------

struct Outcome {
  bool ok = false;
  std::string error;
  uint64_t z_hash = 0;
  core::JobStats stats;
};

Outcome outcome_of(const api::WorkloadResult& r) {
  Outcome o;
  o.ok = r.ok();
  o.error = r.ok() ? "" : r.error.message;
  o.z_hash = r.z_hash;
  o.stats = r.stats;
  return o;
}

class Target {
 public:
  virtual ~Target() = default;
  virtual uint64_t submit(const std::string& spec) = 0;
  virtual Outcome wait(uint64_t token) = 0;
  Outcome run(const std::string& spec) { return wait(submit(spec)); }
};

api::ServiceConfig one_worker() {
  api::ServiceConfig c;
  c.n_threads = 1;
  return c;
}

/// In-process api::Service with one worker.
class ServiceTarget final : public Target {
 public:
  ServiceTarget() : svc_(one_worker()) {}

  uint64_t submit(const std::string& spec) override {
    const uint64_t token = next_++;
    live_.emplace(token, svc_.submit(api::WorkloadRegistry::global().create(spec)));
    return token;
  }
  Outcome wait(uint64_t token) override {
    const auto it = live_.find(token);
    api::JobHandle h = std::move(it->second);
    live_.erase(it);
    return outcome_of(h.get());
  }
  api::Service& service() { return svc_; }

 private:
  api::Service svc_;
  std::map<uint64_t, api::JobHandle> live_;
  uint64_t next_ = 1;
};

/// serve::Server (one service worker) plus one serve::Client connection.
class ServeTarget final : public Target {
 public:
  explicit ServeTarget(const std::string& address) : server_(config(address)) {
    server_.start();
    client_.emplace(serve::ClientConfig{server_.address(), "perfbench", 60000});
  }

  uint64_t submit(const std::string& spec) override { return client_->submit(spec); }
  Outcome wait(uint64_t token) override {
    const serve::Client::Outcome c = client_->wait(token);
    Outcome o;
    o.ok = c.ok();
    o.error = c.message;
    o.z_hash = c.result.z_hash;
    o.stats.cycles = c.result.cycles;
    o.stats.advance_cycles = c.result.advance_cycles;
    o.stats.stall_cycles = c.result.stall_cycles;
    o.stats.macs = c.result.macs;
    o.stats.fma_ops = c.result.fma_ops;
    return o;
  }
  serve::Server& server() { return server_; }

 private:
  static serve::ServerConfig config(const std::string& address) {
    serve::ServerConfig c;
    c.address = address;
    c.service = one_worker();
    return c;
  }
  serve::Server server_;  // declared first: the client disconnects before it stops
  std::optional<serve::Client> client_;
};

// --- Workload plans ---------------------------------------------------------

struct Plan {
  bool serve = false;
  uint32_t batch = 0;      ///< training batch (train_*)
  int setup_per_round = 0; ///< set-up samples per round of an untraced run
  size_t window = 0;       ///< jobs in flight in the saturated phase
  int trace_pairs = 0;     ///< untraced/traced job pairs in a traced run
  int direct_reps = 0;     ///< direct-call repetitions in a traced run
};

Plan plan_for(const std::string& workload) {
  if (workload == "train_b16") return Plan{false, 16, 1, 2, 6, 3};
  if (workload == "train_b1") return Plan{false, 1, 1, 2, 8, 4};
  if (workload == "serve_small") return Plan{true, 0, 3, 16, 150, 60};
  throw std::invalid_argument("unknown workload `" + workload + "`");
}

/// Rounds of an untraced run.
constexpr int kRounds = 10;
/// Distinct input batches per training run: each needs one cold oracle step,
/// so this bounds the oracle's share of the run.
constexpr uint64_t kTrainInputs = 8;
constexpr uint32_t kServeSizes[3] = {16, 24, 32};
constexpr uint64_t kServeSpecsPerSize = 16;

/// The specs a run's jobs rotate through, all drawn from the run's seed.
/// Training jobs share one warm-start template and differ in input_seed;
/// serve jobs alternate the three sizes, so each appears equally often.
std::vector<std::string> spec_pool(const Plan& plan, uint64_t seed) {
  std::vector<std::string> pool;
  if (!plan.serve) {
    for (uint64_t j = 0; j < kTrainInputs; ++j)
      pool.push_back("network:batch=" + std::to_string(plan.batch) +
                     ",warm=1,input_seed=" + std::to_string(split_seed(seed, j) | 1));
    return pool;
  }
  for (uint64_t j = 0; j < 3 * kServeSpecsPerSize; ++j) {
    const uint32_t size = kServeSizes[j % 3];
    const std::string d = std::to_string(size);
    pool.push_back("gemm:m=" + d + ",n=" + d + ",k=" + d + ",seed=" +
                   std::to_string(1 + split_seed(seed, size * 1000 + j / 3) % 1000000007));
  }
  return pool;
}

/// Peak resident set (VmHWM) in KiB, and its reset: the oracle runs before
/// the measured phases and must not set the peak they report.
uint64_t peak_rss_kib() {
  uint64_t kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::sscanf(line, "VmHWM: %" SCNu64, &kib) == 1) break;
    std::fclose(f);
  }
  if (kib != 0) return kib;
  rusage ru{};  // no procfs: the lifetime peak, oracle included
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Jobs of one phase, checked against the oracle as they complete.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
};

class Run {
 public:
  /// Computes the cold Service::run_one oracle of every spec in the pool,
  /// before any timed window. \p corrupt_oracle flips one bit of the first
  /// oracle hash: the benchmark's own test of its mismatch gate.
  Run(std::string workload, uint64_t seed, std::string scratch, bool corrupt_oracle)
      : workload_(std::move(workload)),
        plan_(plan_for(workload_)),
        seed_(seed),
        scratch_(std::move(scratch)),
        pool_(spec_pool(plan_, seed)) {
    for (const std::string& spec : pool_) {
      std::unique_ptr<api::Workload> w = api::WorkloadRegistry::global().create(spec);
      oracle_.push_back(outcome_of(api::Service::run_one(*w, {}, false)));
    }
    if (corrupt_oracle) oracle_.front().z_hash ^= 1;
  }

  void untraced(double seconds);
  void traced();
  void print(std::FILE* out) const;

 private:
  size_t next_job() { return next_job_++ % pool_.size(); }

  std::unique_ptr<Target> make_target() {
    if (!plan_.serve) return std::make_unique<ServiceTarget>();
    return std::make_unique<ServeTarget>(
        "unix:" + scratch_ + "/pb-" + std::to_string(::getpid()) + "-" +
        std::to_string(next_socket_++) + ".sock");
  }

  void check(const std::string& phase, size_t spec, const Outcome& o) {
    Tally& t = tallies_[phase];
    ++t.attempted;
    const Outcome& want = oracle_[spec];
    std::string problem;
    if (!o.ok) {
      ++t.failed;
      problem = "failed: " + o.error;
    } else if (!want.ok || o.z_hash != want.z_hash ||
               o.stats.cycles != want.stats.cycles || o.stats.macs != want.stats.macs) {
      ++t.mismatched;
      problem = "does not match its cold oracle";
    }
    if (!problem.empty() && problems_.size() < 20)
      problems_.push_back(phase + " job " + pool_[spec] + " " + problem);
  }

  double timed_job(Target& t, const std::string& phase) {
    const size_t spec = next_job();
    const auto t0 = Clock::now();
    const Outcome o = t.run(pool_[spec]);
    const double ms = ms_between(t0, Clock::now());
    check(phase, spec, o);
    return ms;
  }

  void probe_fp16();
  void probe_core();
  void probe_direct(api::Service& svc);

  std::string workload_;
  Plan plan_;
  uint64_t seed_;
  std::string scratch_;
  std::vector<std::string> pool_;
  std::vector<Outcome> oracle_;
  uint64_t next_job_ = 0;
  uint64_t next_socket_ = 0;

  std::map<std::string, Tally> tallies_;
  std::vector<std::string> problems_;
  std::vector<double> setup_s_;
  std::map<std::string, std::vector<double>> latency_ms_;
  uint64_t saturated_jobs_ = 0;
  double saturated_s_ = 0.0;
  uint64_t peak_rss_kib_ = 0;
  Tracer tracer_;
  std::map<std::string, double> counts_;
};

void Run::untraced(double seconds) {
  // Latency storage is sized and touched up front, so recording a sample
  // never grows the resident set that peak_rss_mb reports.
  constexpr size_t kMaxUnloaded = size_t{1} << 17;
  std::vector<double> unloaded(kMaxUnloaded, 0.0);
  size_t n_unloaded = 0;
  reset_peak_rss();

  // The run is kRounds rounds of set-up, unloaded and saturated phases, so
  // every metric samples host conditions across the whole run rather than
  // one stretch of it.
  const auto round = std::chrono::duration<double>(seconds / kRounds);
  std::unique_ptr<Target> target;
  std::chrono::duration<double> saturated_time{0};
  for (int r = 0; r < kRounds; ++r) {
    // Set-up: each sample starts from nothing -- the previous stack is torn
    // down before the clock starts -- and ends when the warm-up job (which
    // fills the cluster pool and the template cache) has returned.
    for (int k = 0; k < plan_.setup_per_round; ++k) {
      target.reset();
      const size_t spec = next_job();
      const auto t0 = Clock::now();
      target = make_target();
      const Outcome o = target->run(pool_[spec]);
      setup_s_.push_back(ms_between(t0, Clock::now()) / 1000.0);
      check("warmup", spec, o);
    }

    // Unloaded: one job in flight, submit to result.
    const auto unloaded_end = Clock::now() + round * 0.7;
    while (n_unloaded < kMaxUnloaded) {
      unloaded[n_unloaded++] = timed_job(*target, "unloaded");
      if (Clock::now() >= unloaded_end) break;
    }

    // Saturated: a fixed window in flight until the phase ends, then drained.
    std::deque<std::pair<uint64_t, size_t>> window;  // token, spec
    const auto t_start = Clock::now();
    const auto saturated_end = t_start + round * 0.3;
    auto submit = [&] {
      const size_t spec = next_job();
      window.emplace_back(target->submit(pool_[spec]), spec);
    };
    while (window.size() < plan_.window) submit();
    while (!window.empty()) {
      const auto [token, spec] = window.front();
      window.pop_front();
      check("saturated", spec, target->wait(token));
      ++saturated_jobs_;
      if (Clock::now() < saturated_end) submit();
    }
    saturated_time += Clock::now() - t_start;
  }
  saturated_s_ = saturated_time.count();
  peak_rss_kib_ = peak_rss_kib();
  unloaded.resize(n_unloaded);
  latency_ms_["unloaded"] = std::move(unloaded);
}

void Run::traced() {
  std::unique_ptr<Target> target = make_target();
  const size_t warm = next_job();
  check("warmup", warm, target->run(pool_[warm]));

  // Untraced and traced jobs interleaved, so the tracing overhead is the
  // difference of two medians taken under the same host conditions.
  auto* svc_target = dynamic_cast<ServiceTarget*>(target.get());
  auto* serve_target = dynamic_cast<ServeTarget*>(target.get());
  for (int i = 0; i < plan_.trace_pairs; ++i) {
    latency_ms_["untraced"].push_back(timed_job(*target, "untraced"));

    const size_t spec = next_job();
    tracer_.begin_request();
    Outcome o;
    {
      auto job = tracer_.span("bench.job");
      if (svc_target != nullptr) {
        std::unique_ptr<api::Workload> w;
        {
          auto s = tracer_.span("api.create");
          w = api::WorkloadRegistry::global().create(pool_[spec]);
        }
        auto s = tracer_.span("api.service");
        o = outcome_of(svc_target->service().submit(std::move(w)).get());
      } else {
        auto s = tracer_.span("serve.client_run");
        o = serve_target->run(pool_[spec]);
      }
    }
    latency_ms_["traced"].push_back(tracer_.last_closed_ms("bench.job"));
    check("traced", spec, o);
    counts_["traced.jobs"] += 1;
    counts_["traced.cycles"] += static_cast<double>(o.stats.cycles);
    counts_["traced.fma_ops"] += static_cast<double>(o.stats.fma_ops);
    counts_["traced.advance_cycles"] += static_cast<double>(o.stats.advance_cycles);
    counts_["traced.stall_cycles"] += static_cast<double>(o.stats.stall_cycles);
  }

  api::Service& svc = svc_target != nullptr ? svc_target->service()
                                            : serve_target->server().service();
  probe_direct(svc);
  probe_core();
  probe_fp16();

  const api::ServiceStats st = svc.stats();
  counts_["api.failed"] = static_cast<double>(st.failed);
  counts_["api.retries"] = static_cast<double>(st.retries);
  counts_["api.clusters_constructed"] = static_cast<double>(st.clusters_constructed);
  counts_["api.cluster_reuses"] = static_cast<double>(st.cluster_reuses);
  counts_["api.template_forks"] = static_cast<double>(st.template_forks);
  counts_["api.template_misses"] = static_cast<double>(st.template_misses);
  if (serve_target != nullptr) {
    const serve::ServerStats ss = serve_target->server().stats();
    counts_["serve.jobs"] = static_cast<double>(1 + 2 * plan_.trace_pairs);
    counts_["serve.frames_in"] = static_cast<double>(ss.frames_in);
    counts_["serve.frames_out"] = static_cast<double>(ss.frames_out);
    counts_["serve.protocol_errors"] = static_cast<double>(ss.protocol_errors);
  }
}

/// Direct calls into the layers under the service for the workload's own
/// job: cluster construction, template staging, snapshot/restore, the staged
/// step, reset -- and the in-process service path for the same specs.
void Run::probe_direct(api::Service& svc) {
  std::unique_ptr<api::Workload> w = api::WorkloadRegistry::global().create(pool_[0]);
  const cluster::ClusterConfig cfg = api::resolve_cluster_config({}, w->requirements());

  tracer_.begin_request();
  std::optional<cluster::Cluster> cl;
  state::ClusterImage img;
  {
    auto root = tracer_.span("bench.provision");
    {
      auto s = tracer_.span("cluster.construct");
      cl.emplace(cfg);
    }
    if (!plan_.serve) {
      auto s = tracer_.span("cluster.stage");
      w->stage_template(*cl);
    }
    auto s = tracer_.span("state.snapshot");
    img = state::snapshot(*cl);
  }
  counts_["mem.l2_resident_bytes"] = static_cast<double>(cl->l2().resident_bytes());
  counts_["state.image_bytes"] = static_cast<double>(
      img.l2.resident_bytes() + img.tcdm.words.size() * sizeof(uint32_t));

  api::RunContext ctx;
  for (int r = 0; r < plan_.direct_reps; ++r) {
    const size_t spec = next_job();
    std::unique_ptr<api::Workload> job;
    tracer_.begin_request();
    {
      auto root = tracer_.span("bench.create");
      auto s = tracer_.span("api.create");
      job = api::WorkloadRegistry::global().create(pool_[spec]);
    }
    // The same spec through the in-process service: the api layer's cost is
    // this minus the direct call below.
    tracer_.begin_request();
    Outcome via_service;
    {
      auto root = tracer_.span("bench.service");
      auto s = tracer_.span("api.service");
      via_service =
          outcome_of(svc.submit(api::WorkloadRegistry::global().create(pool_[spec])).get());
    }
    check("service", spec, via_service);

    tracer_.begin_request();
    Outcome direct;
    {
      auto root = tracer_.span("bench.direct");
      {
        auto s = tracer_.span("state.restore");
        state::restore(*cl, img);
      }
      auto s = tracer_.span("cluster.run_staged");
      direct = outcome_of(plan_.serve ? job->run(*cl, ctx) : job->run_staged(*cl, ctx));
    }
    check("direct", spec, direct);
    auto s = tracer_.span("cluster.reset");
    cl->reset();
  }

  // The staged training call itself, for its per-GEMM counters (phases,
  // DMA, overlap) and the simulator's host time per simulated cycle.
  const size_t spec = next_job();
  std::unique_ptr<api::Workload> job = api::WorkloadRegistry::global().create(pool_[spec]);
  state::restore(*cl, img);
  tracer_.begin_request();
  if (plan_.serve) {
    Outcome o;
    {
      auto s = tracer_.span("sim.step");
      o = outcome_of(job->run(*cl, ctx));
    }
    counts_["sim.cycles"] = static_cast<double>(o.stats.cycles);
    check("sim", spec, o);
    return;
  }
  const auto& nspec = dynamic_cast<api::NetworkTrainingWorkload&>(*job).spec();
  Xoshiro256 rng(nspec.seed);
  workloads::NetworkGraph net = workloads::NetworkGraph::autoencoder(nspec.net, rng);
  Xoshiro256 input_rng(nspec.input_seed);
  const workloads::MatrixF16 x =
      workloads::random_matrix(net.input_dim(), nspec.net.batch, input_rng);
  cluster::RedmuleDriver drv(*cl);
  cluster::NetworkRunner runner(*cl, drv);
  cluster::NetworkRunner::TrainingResult r;
  {
    auto s = tracer_.span("sim.step");
    r = runner.training_step_staged(net, x, x, nspec.lr);
  }
  uint64_t dma_bytes = 0, dma_wait = 0, compute = 0, gemm_total = 0;
  Outcome o;
  o.ok = true;
  o.z_hash = api::hash_matrix(r.out);
  for (const workloads::MatrixF16& dw : r.dw) o.z_hash = api::hash_fold(o.z_hash, dw);
  o.stats.cycles = r.stats.total_cycles;
  o.stats.macs = r.stats.macs;
  for (const cluster::NetworkGemmStats& g : r.stats.gemms) {
    dma_bytes += g.tiled.dma_bytes_in + g.tiled.dma_bytes_out;
    dma_wait += g.tiled.dma_wait_cycles;
    compute += g.tiled.compute_cycles;
    gemm_total += g.tiled.total_cycles;
  }
  check("sim", spec, o);
  using Phase = workloads::AeGemm::Phase;
  counts_["sim.cycles"] = static_cast<double>(r.stats.total_cycles);
  counts_["mem.dma_bytes"] = static_cast<double>(dma_bytes);
  counts_["mem.dma_wait_cycles"] = static_cast<double>(dma_wait);
  counts_["cluster.phase_cycles.fw"] = static_cast<double>(r.stats.phase_cycles(Phase::kForward));
  counts_["cluster.phase_cycles.dx"] =
      static_cast<double>(r.stats.phase_cycles(Phase::kGradInput));
  counts_["cluster.phase_cycles.dw"] =
      static_cast<double>(r.stats.phase_cycles(Phase::kGradWeight));
  counts_["cluster.compute_cycles"] = static_cast<double>(compute);
  counts_["cluster.gemm_cycles"] = static_cast<double>(gemm_total);
}

/// RedmuleDriver::gemm on a default cluster with dense random X against an
/// all-zero X: the zero operand sends every datapath FMA down the
/// exact-zero-result path.
void Run::probe_core() {
  cluster::Cluster cl;
  cluster::RedmuleDriver drv(cl);
  Xoshiro256 rng(split_seed(seed_, 0xC0DE));
  constexpr size_t kDim = 48;
  const workloads::MatrixF16 w = workloads::random_matrix(kDim, kDim, rng);
  const workloads::MatrixF16 dense = workloads::random_matrix(kDim, kDim, rng);
  const workloads::MatrixF16 zero(kDim, kDim, Float16::from_bits(0));
  for (int r = 0; r < 7; ++r) {
    for (const bool is_zero : {false, true}) {
      drv.reset();
      tracer_.begin_request();
      const char* name = is_zero ? "core.gemm.zero_x" : "core.gemm.dense";
      cluster::RedmuleDriver::GemmResult g;
      {
        auto s = tracer_.span(name);
        g = drv.gemm(is_zero ? zero : dense, w);
      }
      counts_[std::string(name) + ".fma_ops"] = static_cast<double>(g.stats.fma_ops);
    }
  }
}

/// Float16::fma over seeded operand streams whose results all fall in one
/// class: normal, exact zero (a zero operand and a zero addend, as in a
/// padded lane), or subnormal.
void Run::probe_fp16() {
  constexpr size_t kOps = 1 << 14;
  constexpr int kPasses = 16;
  Xoshiro256 rng(split_seed(seed_, 0xF16));
  auto normal = [&](uint16_t biased_exp, uint64_t exp_span) {
    const uint16_t sign = rng.next_bool() ? 0x8000 : 0;
    const auto exp = static_cast<uint16_t>(biased_exp + rng.next_below(exp_span));
    return Float16::from_bits(
        static_cast<uint16_t>(sign | (exp << 10) | (rng.next_u16() & 0x3FF)));
  };
  auto zero = [&] { return Float16::from_bits(rng.next_bool() ? 0x8000 : 0); };
  enum Class { kNormal, kZero, kSubnormal, kInfNan };
  auto class_of = [](Float16 r) {
    const uint16_t e = (r.bits() >> 10) & 0x1F, m = r.bits() & 0x3FF;
    if (e == 0) return m == 0 ? kZero : kSubnormal;
    return e == 31 ? kInfNan : kNormal;
  };
  struct Triple {
    Float16 a, b, c;
  };
  const char* names[3] = {"fp16.fma.normal", "fp16.fma.zero_result", "fp16.fma.subnormal"};
  std::vector<Triple> streams[3];
  for (int cls = 0; cls < 3; ++cls) {
    while (streams[cls].size() < kOps) {
      Triple t{};
      if (cls == kNormal) t = {normal(14, 2), normal(14, 2), normal(14, 2)};
      if (cls == kZero) t = {zero(), normal(14, 2), zero()};
      if (cls == kSubnormal) t = {normal(7, 1), normal(7, 1), zero()};  // |ab| < 2^-14
      if (class_of(Float16::fma(t.a, t.b, t.c)) == cls) streams[cls].push_back(t);
    }
  }
  uint32_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    for (int cls = 0; cls < 3; ++cls) {
      tracer_.begin_request();
      auto s = tracer_.span(names[cls]);
      for (int p = 0; p < kPasses; ++p)
        for (const Triple& t : streams[cls]) sink += Float16::fma(t.a, t.b, t.c).bits();
    }
  }
  counts_["fp16.ops_per_span"] = static_cast<double>(kOps * kPasses);
  counts_["fp16.sink"] = static_cast<double>(sink & 0xFFFF);  // keeps the loops live
}

// --- JSON printing ----------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class T, class F>
void print_list(std::ostringstream& s, const std::vector<T>& v, F item) {
  s << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s << ",";
    item(v[i]);
  }
  s << "]";
}

void Run::print(std::FILE* out) const {
  std::ostringstream s;
  s << "{\"workload\":" << quoted(workload_) << ",\"seed\":" << seed_ << ",\"specs\":";
  print_list(s, pool_, [&](const std::string& v) { s << quoted(v); });
  s << ",\"oracle\":";
  print_list(s, oracle_, [&](const Outcome& o) {
    s << "{\"ok\":" << (o.ok ? "true" : "false") << ",\"z_hash\":" << o.z_hash
      << ",\"cycles\":" << o.stats.cycles << ",\"macs\":" << o.stats.macs
      << ",\"fma_ops\":" << o.stats.fma_ops << "}";
  });
  s << ",\"tallies\":{";
  bool first = true;
  for (const auto& [phase, t] : tallies_) {
    s << (first ? "" : ",") << quoted(phase) << ":{\"attempted\":" << t.attempted
      << ",\"failed\":" << t.failed << ",\"mismatched\":" << t.mismatched << "}";
    first = false;
  }
  s << "},\"problems\":";
  print_list(s, problems_, [&](const std::string& v) { s << quoted(v); });
  s << ",\"setup_s\":";
  print_list(s, setup_s_, [&](double v) { s << num(v); });
  s << ",\"latency_ms\":{";
  first = true;
  for (const auto& [phase, v] : latency_ms_) {
    s << (first ? "" : ",") << quoted(phase) << ":";
    print_list(s, v, [&](double x) { s << num(x); });
    first = false;
  }
  s << "},\"saturated_jobs\":" << saturated_jobs_ << ",\"saturated_s\":" << num(saturated_s_)
    << ",\"peak_rss_kib\":" << peak_rss_kib_ << ",\"counts\":{";
  first = true;
  for (const auto& [k, v] : counts_) {
    s << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  s << "},\"spans\":";
  print_list(s, tracer_.records(), [&](const Tracer::Record& r) {
    s << "\n[" << quoted(r.name) << "," << r.request << "," << r.parent << "," << r.start_ns
      << "," << r.end_ns << "]";
  });
  s << "}\n";
  const std::string text = s.str();
  std::fwrite(text.data(), 1, text.size(), out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scratch = ".";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, corrupt_oracle = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt-oracle") {
      corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", key.c_str());
      return 2;
    }
    const std::string val = argv[++i];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::stoull(val);
    else if (key == "--seconds") seconds = std::stod(val);
    else if (key == "--trace") trace = val == "1";
    else if (key == "--scratch") scratch = val;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  try {
    Run run(workload, seed, scratch, corrupt_oracle);
    if (trace)
      run.traced();
    else
      run.untraced(seconds);
    run.print(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
