#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <thread>

#include "common/thread_pool.hpp"
#include "pareto/pareto.hpp"

namespace perfbench {

namespace rc = repro::common;
namespace rs = repro::serve;
using repro::core::Predictor;

namespace {

// --- workload plans -------------------------------------------------------------

/// A workload's fixed settings. Rates are absolute, set once on a 4-vCPU
/// x86-64 VM whose host alternates between calm spells and busy ones in
/// which wake-ups of idle vCPUs wait on the host and capacity fell below a
/// sixth of the calm one (wire_features p50 at 6000/s went from 0.5 ms to
/// several ms). The fixed rates sit far below calm capacity (wire_features
/// ~36 000/s, paper_source ~2600/s), so that the latency they read is the
/// request path's and not a queue's. The ladder, run in the traced pass
/// only, climbs from just above `high` in fixed steps.
struct Plan {
  const char* name;
  bool serving;
  bool reduced_model;     // serving model: `--suite-stride 4 --num-configs 16`
  Payload payload;
  std::size_t connections;  // 2: one binary-framed + one JSON-line; 1: JSON lines
  double low;             // requests per second
  double high;
  double limit_ms;        // kTailPercentile latency limit of a passing level
  std::vector<double> ladder;  // ascending rates above `high`
  int reps;               // high-rate repetitions in the untraced pass
  int setups;             // set-ups per run; setup_s is their median
};

/// Rungs high × step^k for k = first..last.
std::vector<double> ladder_above(double high, double step, int first, int last) {
  std::vector<double> rates;
  for (int k = first; k <= last; ++k) rates.push_back(std::round(high * std::pow(step, k)));
  return rates;
}

// `reps` repetitions of about 1.5 s at --seconds 25 make the untraced pass:
// host steal comes in bursts, and a run inside a busy spell still holds
// some repetitions the bursts missed, which kept_by_steal reads. The
// ladders climb in 10% steps, so that the capacity of the fastest calm
// spells seen (52 000/s and over 4200/s) is reached in under thirty rungs.
const Plan& plan_for(const std::string& name) {
  static const Plan kPlans[] = {
      {"wire_features", true, true, Payload::kFeatures, 2, 2000, 3500, 5.0,
       ladder_above(3500, 1.1, 1, 30), 16, 21},
      {"paper_source", true, false, Payload::kSource, 1, 200, 500, 25.0,
       ladder_above(500, 1.1, 1, 24), 16, 3},
      // offline_tu runs closed loop: its levels are batch sizes, below.
      {"offline_tu", false, false, Payload::kSource, 0, 0, 0, 100.0, {}, 16, 3},
  };
  for (const auto& plan : kPlans) {
    if (name == plan.name) return plan;
  }
  return kPlans[0];
}

/// Offline units per run, and the batch sizes of offline_tu's levels: low
/// and high are one and four units per predict_source_batch call (four keep
/// the four pool threads busy with enough calls per repetition for a p95);
/// goodput also tries sixteen and thirty-two.
constexpr std::size_t kOfflineUnits = 320;
constexpr std::size_t kOfflineLowBatch = 1;
constexpr std::size_t kOfflineHighBatch = 4;
constexpr std::size_t kOfflineRungBatches[] = {16, 32};
/// Requests each connection keeps in flight in the saturation phase.
constexpr std::size_t kSaturationWindow = 32;

/// pick_kernel streams: one per phase, so phases draw independent orders.
/// A level's repetition r draws from stream × 16 + r.
enum Stream : std::uint64_t {
  kFirstReply = 1,
  kLow = 2,
  kHigh = 3,
  kSaturation = 4,
  kRungService = 5,
  kRungSocket = 6,
  kRungFleet = 7,
  kHighUnix = 8,
  kHighTraced = 9,
  kWarmUp = 10,
  kHighDefault = 11,
  kLadder = 100,  // + rung index
};

// --- bookkeeping ------------------------------------------------------------------

void add_metric(RunResult& out, std::string name, double value, std::string unit,
                std::size_t samples = 0) {
  out.metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void note(RunResult& out, const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out.notes.emplace_back(buf);
}

/// One rate (or offline batch size) run as several repetitions, each its own
/// schedule and drained before the next: their results, each one's CPU per
/// request, and the extras the per-layer metrics read (context switches,
/// peak thread count, wire traces) merged.
struct Level {
  std::vector<StepResult> reps;
  std::vector<double> cpu_us_per_req;  // per repetition
  StepExtras extras;
  std::size_t ok = 0;
};

Percentile level_percentile(const Level& level, double p) {
  return level_percentile(level.reps, p);
}

/// Fold one step's counts into the run and note its phase line. Every step
/// counts, a warm-up one too: its requests were sent, and a repetition that
/// kept_by_steal sets aside is still checked.
/// Mismatches are always incorrect; so are failed requests when `must_pass`
/// (the fixed-rate levels).
void account(RunResult& out, const Plan& plan, const std::string& name, const StepResult& step,
             const StepExtras& x, bool must_pass) {
  out.attempted += step.scheduled;
  out.failed += step.failed;
  out.mismatched += x.mismatched;
  if (x.mismatched != 0 || (must_pass && step.failed != 0)) out.correct = false;
  const auto at = [&](double p) { return nearest_rank(step.latency_ms, p).value; };
  note(out,
       "phase %-14s rate %7.0f/s sent %6zu ok %6zu failed %3zu | ms p50 %.3f p95 %.3f "
       "p99 %.3f max %.3f (n=%zu) | gen_lag_p99 %.3f ms steal %.1f%% %s",
       name.c_str(), step.offered_rps, step.sent, step.ok, step.failed, at(50), at(95), at(99),
       at(100), step.latency_ms.size(), nearest_rank(step.gen_lag_ms, 99.0).value,
       100.0 * step.steal_share, step_valid(step, plan.limit_ms) ? "valid" : "INVALID");
}

/// An unmeasured warm-up step: lazy set-up finishes and caches fill before
/// timing starts.
template <typename RunStep>
void warm_up(RunResult& out, const Plan& plan, double rate, double seconds, RunStep run_step) {
  StepExtras x;
  const StepResult step = run_step(rate, seconds, 0, x);
  account(out, plan, "warm-up", step, x, false);
}

/// Run one repetition of `level` and add it, with the host steal it saw.
template <typename RunStep>
void run_rep(RunResult& out, const Plan& plan, Level& level, const std::string& phase,
             double rate, double seconds, std::uint64_t rep, bool must_pass, RunStep run_step) {
  StepExtras x;
  StepResult step = run_step(rate, seconds, rep, x);
  step.steal_share = x.steal_share;
  account(out, plan, phase + "." + std::to_string(rep), step, x, must_pass);

  level.cpu_us_per_req.push_back(cpu_us_per_request(x.cpu, step.ok));
  level.extras.usage.ctxsw += x.usage.ctxsw;
  level.extras.threads = std::max(level.extras.threads, x.threads);
  level.extras.traces.insert(level.extras.traces.end(), x.traces.begin(), x.traces.end());
  level.ok += step.ok;
  level.reps.push_back(std::move(step));
}

/// `reps` back-to-back repetitions of `seconds` / `reps` each.
template <typename RunStep>
Level run_level(RunResult& out, const Plan& plan, const std::string& phase, double rate,
                double seconds, int reps, bool must_pass, RunStep run_step) {
  Level level;
  for (int r = 0; r < reps; ++r) {
    run_rep(out, plan, level, phase, rate, seconds / reps, static_cast<std::uint64_t>(r),
            must_pass, run_step);
  }
  return level;
}

/// The level's latency at percentile `p`, as metric "p<p>_ms.<name>".
void add_latency(RunResult& out, double p, const std::string& name, const Level& level) {
  const auto q = level_percentile(level, p);
  char metric[32];
  std::snprintf(metric, sizeof metric, "p%.0f_ms.%s", p, name.c_str());
  add_metric(out, metric, q.value, "ms", q.n);
}

StepSpec spec_of(const RunOptions& options, const Plan& plan, double rate, double seconds,
                 std::uint64_t stream) {
  StepSpec spec;
  spec.rate = rate;
  spec.seconds = seconds;
  spec.seed = options.seed;
  spec.stream = stream;
  spec.payload = plan.payload;
  return spec;
}

/// Repetitions of each traced level, ladder rung and saturation phase, and
/// the share of --seconds a ladder rung and a saturation phase take.
constexpr int kReps = 3;
constexpr double kRungShare = 0.02;
constexpr double kSaturationShare = 0.03;

/// `run_step` with repetition r of a level drawing from stream base × 16 + r.
template <typename RunStep>
auto on_stream(RunStep run_step, std::uint64_t base) {
  return [run_step, base](double rate, double seconds, std::uint64_t rep, StepExtras& x) {
    return run_step(rate, seconds, base * 16 + rep, x);
  };
}

/// The untraced pass of the serving workloads: after a warm-up, plan.reps
/// back-to-back repetitions at the high rate, the CPU they cost read from
/// those kept_by_steal keeps. `run_step(rate, seconds, stream, extras)` runs
/// one open-loop step against the system under test.
template <typename RunStep>
void untraced_levels(RunResult& out, const Plan& plan, double s, RunStep run_step) {
  warm_up(out, plan, plan.high, 0.05 * s, on_stream(run_step, kWarmUp));
  const Level high = run_level(out, plan, "high", plan.high, 0.95 * s, plan.reps, true,
                               on_stream(run_step, kHigh));
  add_metric(out, "cpu_us_per_req", kept_median(high.cpu_us_per_req, steal_of(high.reps)),
             "us");
}

/// Capacity, measured in the traced pass: closed-loop saturation phases
/// (kernels_per_s), then the goodput ladder, which climbs above the high
/// rate until two rungs have failed since the last pass. `low` and `high`
/// are levels already run at those rates; `run_saturation(seconds, stream,
/// ok)` runs one saturation phase.
template <typename RunStep, typename RunSaturation>
void capacity(RunResult& out, const Plan& plan, double s, const Level& low, const Level& high,
              RunStep run_step, RunSaturation run_saturation) {
  std::vector<double> saturation;
  std::vector<double> saturation_steal;
  for (std::uint64_t r = 0; r < kReps; ++r) {
    std::size_t ok = 0;
    const HostTicks before = host_ticks();
    const double rate = run_saturation(kSaturationShare * s, kSaturation * 16 + r, ok);
    const double steal = steal_share(before, host_ticks());
    out.attempted += ok;
    note(out, "phase saturation.%llu   %.1f/s ok %zu | steal %.1f%%",
         static_cast<unsigned long long>(r), rate, ok, 100.0 * steal);
    saturation.push_back(rate);
    saturation_steal.push_back(steal);
  }
  add_metric(out, "kernels_per_s", kept_median(saturation, saturation_steal), "1/s");

  std::vector<double> rates{plan.low, plan.high};
  std::vector<RungStatus> statuses{level_status(low.reps, plan.limit_ms),
                                   level_status(high.reps, plan.limit_ms)};
  for (std::size_t r = 0; r < plan.ladder.size() && !ladder_done(statuses); ++r) {
    const std::string name = "ladder" + std::to_string(r + 1);
    const Level rung = run_level(out, plan, name, plan.ladder[r], kRungShare * s, kReps, false,
                                 on_stream(run_step, kLadder + r));
    rates.push_back(plan.ladder[r]);
    statuses.push_back(level_status(rung.reps, plan.limit_ms));
  }
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    note(out, "ladder rung %zu rate %8.0f/s %s", i, rates[i], rung_status_name(statuses[i]));
  }
  add_metric(out, "goodput_rps", goodput(rates, statuses), "1/s");
}

// --- set-up and the reference ----------------------------------------------------

/// One serving set-up: the fleet plus the generator's connections.
struct Session {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<WireConn>> conns;
};

/// Connections for `plan` to a Unix path or a TCP port: with two, the first
/// negotiates binary framing and the second stays on JSON lines.
rc::Result<std::vector<std::unique_ptr<WireConn>>> connect_all(const Plan& plan,
                                                              const std::string& unix_path,
                                                              int tcp_port,
                                                              bool prompt_acks = true) {
  std::vector<std::unique_ptr<WireConn>> conns;
  for (std::size_t c = 0; c < plan.connections; ++c) {
    auto conn = WireConn::connect(unix_path, tcp_port, plan.connections == 2 && c == 0,
                                  prompt_acks);
    if (!conn.ok()) return conn.error();
    conns.push_back(std::move(conn).take());
  }
  return conns;
}

rc::Result<Reference> serving_reference(const Plan& plan, const Fleet& fleet,
                                        const std::vector<CorpusKernel>& corpus) {
  auto predictor = Predictor::from_model(fleet.model);
  if (!predictor.ok()) return predictor.error();
  Reference reference;
  for (const auto& k : corpus) {
    if (plan.payload == Payload::kSource) {
      auto p = predictor.value().predict_source(k.source, k.name);
      if (!p.ok()) return p.error();
      reference.push_back(std::move(p).take());
    } else {
      auto p = predictor.value().predict_pareto(k.features);
      if (!p.ok()) return p.error();
      reference.push_back({k.features.kernel_name, std::move(p).take()});
    }
  }
  return reference;
}

/// Set up `count` times — each a cold train into a fresh model-cache
/// directory, both workers, the balancer, the connections, and one request
/// answered — and keep the last session. setup_s is the median over the
/// set-ups kept_by_steal keeps; each first reply is checked against the
/// reference once it exists.
rc::Result<Session> set_up_serving(const RunOptions& options, const Plan& plan, int count,
                                   const std::vector<CorpusKernel>& corpus,
                                   Reference& reference, SpanLog& spans, RunResult& out) {
  const rs::ServiceConfig config = service_config(plan.reduced_model);
  std::vector<double> times;
  std::vector<double> steals;
  Session session;
  for (int k = 0; k < count; ++k) {
    session = Session{};  // the previous set-up is torn down off the clock
    const std::string dir = options.work_dir + "/setup" + std::to_string(k);
    const HostTicks host_before = host_ticks();
    const auto t0 = Clock::now();
    const std::int64_t setup_span = spans.open("setup");
    auto fleet = start_fleet(config, dir, spans, setup_span);
    if (!fleet.ok()) return fleet.error();
    session.fleet = std::move(fleet).take();
    auto conns = connect_all(plan, "", session.fleet->balancer->tcp_port());
    if (!conns.ok()) return conns.error();
    session.conns = std::move(conns).take();
    const std::size_t first = pick_kernel(options.seed, kFirstReply, k, corpus.size());
    std::uint64_t id = 0;
    auto reply = round_trip(*session.conns[0], corpus[first], plan.payload, id);
    if (!reply.ok()) return reply.error();
    const double setup_s = seconds_between(t0, Clock::now());
    spans.close(setup_span);

    if (reference.empty()) {
      auto made = serving_reference(plan, *session.fleet, corpus);
      if (!made.ok()) return made.error();
      reference = std::move(made).take();
    }
    ++out.attempted;
    if (!reply_is(reply.value(), session.conns[0]->binary(), id, reference[first])) {
      ++out.failed;
      out.correct = false;
      note(out, "setup %d: first reply differs from the reference", k);
    }
    times.push_back(setup_s);
    steals.push_back(steal_share(host_before, host_ticks()));
  }
  add_metric(out, "setup_s", kept_median(times, steals), "s", times.size());
  return session;
}

// --- per-layer measurements (traced runs) ------------------------------------------

bool out_of_time(Clock::time_point start, double budget_s) {
  return seconds_between(start, Clock::now()) >= budget_s;
}

void layer_clfront(RunResult& out, const Predictor& predictor,
                   const std::vector<OfflineUnit>& sources, double budget_s, SpanLog& spans) {
  double bytes = 0.0;
  double busy_s = 0.0;
  const auto start = Clock::now();
  do {
    for (const auto& s : sources) {
      const auto t0 = Clock::now();
      const auto features = predictor.pipeline().featurize(s.source, s.kernel);
      const auto t1 = Clock::now();
      spans.add("clfront.featurize", t0, t1);
      if (!features.ok()) out.correct = false;
      bytes += static_cast<double>(s.source.size());
      busy_s += seconds_between(t0, t1);
    }
  } while (!out_of_time(start, budget_s));
  const auto us = spans.durations_us("clfront.featurize");
  add_metric(out, "clfront.featurize_us", median(us), "us", us.size());
  add_metric(out, "clfront.featurize_mb_s", bytes / 1e6 / busy_s, "MB/s");
}

/// ml and pareto: the two halves of FrequencyModel::predict_pareto, on the
/// configurations it evaluates (the sampled domain without mem-L).
void layer_ml_pareto(RunResult& out, const repro::core::FrequencyModel& model,
                     const std::vector<repro::clfront::StaticFeatures>& features,
                     double budget_s, SpanLog& spans) {
  const auto& domain = model.domain();
  const auto* mem_l = domain.find_domain(repro::gpusim::MemLevel::kL);
  std::vector<repro::gpusim::FrequencyConfig> modeled;
  for (const auto& c : domain.sample_configs(model.training_configs().size())) {
    if (mem_l == nullptr || c.mem_mhz != mem_l->mem_mhz) modeled.push_back(c);
  }
  std::vector<repro::pareto::Point> points;
  const auto start = Clock::now();
  do {
    for (const auto& f : features) {
      const auto t0 = Clock::now();
      const auto predictions = model.predict_all(f, modeled);
      const auto t1 = Clock::now();
      points.clear();
      for (std::size_t i = 0; i < predictions.size(); ++i) {
        points.push_back({predictions[i].speedup, predictions[i].energy,
                          static_cast<std::uint32_t>(i)});
      }
      const auto t2 = Clock::now();
      const auto front = repro::pareto::pareto_set_fast(points);
      const auto t3 = Clock::now();
      spans.add("ml.predict_all", t0, t1);
      spans.add("pareto.front", t2, t3);
      if (front.empty()) out.correct = false;
    }
  } while (!out_of_time(start, budget_s));
  const auto ml = spans.durations_us("ml.predict_all");
  const auto front = spans.durations_us("pareto.front");
  add_metric(out, "ml.regress_us", median(ml), "us", ml.size());
  add_metric(out, "pareto.front_us", median(front), "us", front.size());
}

void layer_core_batch(RunResult& out, const Predictor& predictor,
                      const std::vector<repro::clfront::StaticFeatures>& features,
                      double budget_s, SpanLog& spans) {
  for (std::size_t b : {1, 4, 16}) {
    const std::string name = "core.predict_batch.b" + std::to_string(b);
    std::vector<double> per_kernel;
    const auto start = Clock::now();
    do {
      for (std::size_t i = 0; i + b <= features.size(); i += b) {
        const auto t0 = Clock::now();
        const auto result = predictor.predict_batch(
            std::span<const repro::clfront::StaticFeatures>(features.data() + i, b));
        const auto t1 = Clock::now();
        spans.add(name, t0, t1);
        if (!result.ok()) out.correct = false;
        per_kernel.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count() /
                             static_cast<double>(b));
      }
    } while (!out_of_time(start, budget_s / 3.0));
    add_metric(out, "core.batch_us_per_kernel.b" + std::to_string(b), median(per_kernel), "us",
               per_kernel.size());
  }
}

/// predict_source_batch at one thread against the default count, through
/// ThreadPool::set_global_threads; called only while no traffic is running.
void layer_parallel(RunResult& out, const Predictor& predictor,
                    const std::vector<OfflineUnit>& sources, SpanLog& spans) {
  const auto time_batch = [&](const char* name) {
    std::vector<double> runs;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      const auto result = predictor.predict_source_batch(sources);
      const auto t1 = Clock::now();
      spans.add(name, t0, t1);
      if (!result.ok()) out.correct = false;
      runs.push_back(seconds_between(t0, t1));
    }
    return median(runs);
  };
  rc::ThreadPool::set_global_threads(1);
  const double serial = time_batch("common.source_batch.threads1");
  rc::ThreadPool::set_global_threads(0);
  const double threads = static_cast<double>(rc::ThreadPool::global().size());
  const double parallel = time_batch("common.source_batch.default_threads");
  add_metric(out, "common.parallel_efficiency", serial / (threads * parallel), "ratio");
}

/// The wire codec on the workload's own messages: per message, encode and
/// decode the request and the reference reply, in each framing.
void layer_codec(RunResult& out, const Plan& plan, const std::vector<CorpusKernel>& corpus,
                 const Reference& reference, double budget_s, SpanLog& spans) {
  for (const bool binary : {false, true}) {
    const char* name = binary ? "serve.codec.binary" : "serve.codec.json";
    rs::WireRequest request;
    std::string buf;
    const auto start = Clock::now();
    do {
      for (std::size_t k = 0; k < corpus.size(); ++k) {
        request.id = k + 1;
        request.kernel = corpus[k].name;
        request.kind = plan.payload == Payload::kFeatures ? rs::RequestKind::kPredict
                                                          : rs::RequestKind::kPredictSource;
        if (plan.payload == Payload::kFeatures) {
          request.features = corpus[k].features.counts;
        } else {
          request.source = corpus[k].source;
        }
        const auto t0 = Clock::now();
        bool ok = true;
        buf.clear();
        if (binary) {
          rs::binary::format_request_frame_into(buf, request);
          ok &= rs::binary::parse_request(std::string_view(buf).substr(6)).ok();
          buf.clear();
          rs::binary::format_prediction_frame_into(buf, request.id, reference[k]);
          ok &= rs::binary::parse_response(std::string_view(buf).substr(6)).ok();
        } else {
          rs::format_request_into(buf, request);
          ok &= rs::parse_request(buf).ok();
          buf.clear();
          rs::format_response_into(buf, request.id, reference[k]);
          ok &= rs::parse_response(buf).ok();
        }
        spans.add(name, t0, Clock::now());
        if (!ok) out.correct = false;
      }
    } while (!out_of_time(start, budget_s / 2.0));
    const auto us = spans.durations_us(name);
    add_metric(out, binary ? "serve.codec_us.binary" : "serve.codec_us.json", median(us), "us",
               us.size());
  }
}

double stage_at(const repro::obs::Trace& trace, std::string_view stage) {
  for (const auto& s : trace.stages) {
    if (s.stage == stage) return s.us;
  }
  return -1.0;
}

/// Gaps between consecutive stamps of the merged wire trace table. Each
/// difference stays inside one hop's clock; balancer_out is the balancer's
/// dispatch→reply interval minus the worker's parse→reply span.
void layer_stages(RunResult& out, const std::vector<repro::obs::Trace>& traces) {
  std::vector<double> in, queue, execute, reply, back;
  for (const auto& t : traces) {
    const double bp = stage_at(t, "balancer.parse");
    const double bd = stage_at(t, "balancer.dispatch");
    const double br = stage_at(t, "balancer.reply");
    const double p = stage_at(t, "parse");
    const double b = stage_at(t, "batch");
    const double e = stage_at(t, "execute");
    const double r = stage_at(t, "reply");
    if (bp < 0 || bd < 0 || br < 0 || p < 0 || b < 0 || e < 0 || r < 0) continue;
    in.push_back(bd - bp);
    queue.push_back(b - p);
    execute.push_back(e - b);
    reply.push_back(r - e);
    back.push_back((br - bd) - (r - p));
  }
  add_metric(out, "stage.balancer_in_us", median(in), "us", in.size());
  add_metric(out, "stage.worker_queue_us", median(queue), "us", queue.size());
  add_metric(out, "stage.worker_execute_us", median(execute), "us", execute.size());
  add_metric(out, "stage.worker_reply_us", median(reply), "us", reply.size());
  add_metric(out, "stage.balancer_out_us", median(back), "us", back.size());
}

void layer_fleet_stats(RunResult& out, const Fleet& fleet) {
  double requests = 0, batches = 0, shed = 0, deadline = 0, protocol = 0, peak = 0;
  for (const auto& s : fleet.services) {
    const auto st = s->stats();
    requests += static_cast<double>(st.requests);
    batches += static_cast<double>(st.batches);
    shed += static_cast<double>(st.shed);
    deadline += static_cast<double>(st.deadline_exceeded);
  }
  for (const auto& s : fleet.servers) {
    const auto st = s->stats();
    protocol += static_cast<double>(st.protocol_errors);
    peak = std::max(peak, static_cast<double>(st.peak_message_bytes));
  }
  double redispatches = 0, backend_failures = 0, skew = 0;
  for (const auto* b : {fleet.balancer.get(), fleet.unix_balancer.get()}) {
    if (b == nullptr) continue;
    const auto st = b->stats();
    redispatches += static_cast<double>(st.redispatches);
    backend_failures += static_cast<double>(st.backend_failures);
    protocol += static_cast<double>(st.protocol_errors);
    peak = std::max(peak, static_cast<double>(st.peak_message_bytes));
  }
  const auto routed = fleet.balancer->stats().routed;
  if (!routed.empty()) {
    const auto [lo, hi] = std::minmax_element(routed.begin(), routed.end());
    skew = static_cast<double>(*hi) / static_cast<double>(std::max<std::uint64_t>(1, *lo));
  }
  add_metric(out, "serve.batch_size_mean", batches > 0 ? requests / batches : 0.0, "count");
  add_metric(out, "serve.batches", batches, "count");
  add_metric(out, "serve.shed", shed, "count");
  add_metric(out, "serve.deadline_exceeded", deadline, "count");
  add_metric(out, "serve.protocol_errors", protocol, "count");
  add_metric(out, "serve.peak_message_bytes", peak, "bytes");
  add_metric(out, "fleet.route_skew", skew, "ratio");
  add_metric(out, "fleet.redispatches", redispatches, "count");
  add_metric(out, "fleet.backend_failures", backend_failures, "count");
}

void add_process(RunResult& out, const Level& high) {
  add_metric(out, "proc.threads", static_cast<double>(high.extras.threads), "count");
  add_metric(out, "proc.ctxsw_per_req",
             high.ok > 0 ? high.extras.usage.ctxsw / static_cast<double>(high.ok) : 0.0,
             "count");
}

void add_harness(RunResult& out, const Level& high, const Level& traced) {
  std::vector<double> lag;
  for (const auto& step : high.reps) {
    lag.insert(lag.end(), step.gen_lag_ms.begin(), step.gen_lag_ms.end());
  }
  const auto lag_p99 = nearest_rank(lag, 99.0);
  add_metric(out, "harness.gen_lag_p99_ms", lag_p99.value, "ms", lag_p99.n);
  add_metric(out, "harness.sent", static_cast<double>(out.attempted), "count");
  add_metric(out, "harness.ok",
             static_cast<double>(out.attempted - std::min(out.attempted, out.failed)), "count");
  add_metric(out, "harness.failed", static_cast<double>(out.failed), "count");
  const double untraced_p50 = level_percentile(high, 50).value;
  add_metric(out, "trace.overhead_pct",
             100.0 * (level_percentile(traced, 50).value - untraced_p50) / untraced_p50, "%");
}

std::vector<OfflineUnit> as_sources(const std::vector<CorpusKernel>& corpus) {
  std::vector<OfflineUnit> out;
  for (const auto& k : corpus) out.push_back({k.source, k.name});
  return out;
}

std::vector<repro::clfront::StaticFeatures> features_of(const std::vector<CorpusKernel>& corpus) {
  std::vector<repro::clfront::StaticFeatures> out;
  for (const auto& k : corpus) out.push_back(k.features);
  return out;
}

std::vector<WireConn*> views(const std::vector<std::unique_ptr<WireConn>>& conns) {
  std::vector<WireConn*> out;
  for (const auto& c : conns) out.push_back(c.get());
  return out;
}

// --- serving workloads ------------------------------------------------------------

rc::Result<RunResult> run_serving(const RunOptions& options, const Plan& plan,
                                  const std::vector<CorpusKernel>& corpus, SpanLog& spans) {
  RunResult out;
  Reference reference;
  auto session = set_up_serving(options, plan, options.trace ? 1 : plan.setups, corpus,
                                reference, spans, out);
  if (!session.ok()) return session.error();
  Fleet& fleet = *session.value().fleet;
  const auto conns = views(session.value().conns);
  const double s = options.seconds;
  const auto wire_step = [&](const std::vector<WireConn*>& to, const char* span_name,
                             bool traced) {
    return [&, to, span_name, traced](double rate, double seconds, std::uint64_t stream,
                                      StepExtras& x) {
      // Traced runs: one span per repetition, each request a child of it.
      StepSpec spec = spec_of(options, plan, rate, seconds, stream);
      spec.traced = traced;
      spec.spans = spans.enabled() ? &spans : nullptr;
      spec.parent = spans.open(span_name);
      StepResult step = run_wire_step(to, spec, corpus, reference, x);
      spans.close(spec.parent);
      return step;
    };
  };

  if (!options.trace) {
    untraced_levels(out, plan, s, wire_step(conns, "fleet", false));
    return out;
  }

  // Traced: layer by layer; then the serving ladder one hop at a time at the
  // low rate (in-process Service, one SocketServer, the whole fleet); then,
  // at the high rate, the fleet over TCP (the generator's prompt-ACK client,
  // and a client with the kernel's defaults) and over a Unix socket, and
  // with wire tracing on; then the fleet's capacity.
  const auto predictor = Predictor::from_model(fleet.model);
  if (!predictor.ok()) return predictor.error();
  const auto sources = as_sources(corpus);
  const auto features = features_of(corpus);
  add_metric(out, "core.train_s", median(spans.durations_us("core.train")) / 1e6, "s");
  add_metric(out, "core.train_samples", static_cast<double>(fleet.model->training_samples()),
             "count");
  layer_clfront(out, predictor.value(), sources, 0.04 * s, spans);
  layer_ml_pareto(out, *fleet.model, features, 0.04 * s, spans);
  layer_core_batch(out, predictor.value(), features, 0.06 * s, spans);
  layer_parallel(out, predictor.value(), sources, spans);
  layer_codec(out, plan, corpus, reference, 0.04 * s, spans);

  const double level_s = 0.1 * s;
  const Level service = run_level(
      out, plan, "rung.service", plan.low, level_s, kReps, true,
      [&](double rate, double seconds, std::uint64_t rep, StepExtras& x) {
        StepSpec spec = spec_of(options, plan, rate, seconds, kRungService * 16 + rep);
        return run_service_step(*fleet.services[0], spec, corpus, reference, x);
      });
  auto direct = connect_all(plan, fleet.servers[0]->unix_path(), -1);
  if (!direct.ok()) return direct.error();
  const auto rung = [&](const std::vector<WireConn*>& to, const char* name, Stream stream,
                        double rate, bool traced) {
    const auto step = wire_step(to, name, traced);
    return run_level(out, plan, name, rate, level_s, kReps, true,
                     [&](double r, double seconds, std::uint64_t rep, StepExtras& x) {
                       return step(r, seconds, stream * 16 + rep, x);
                     });
  };
  const Level socket = rung(views(direct.value()), "rung.socket", kRungSocket, plan.low, false);
  const Level full = rung(conns, "rung.fleet", kRungFleet, plan.low, false);

  if (auto started = fleet.start_unix_balancer(); !started.ok()) return started.error();
  auto unix_conns = connect_all(plan, fleet.unix_balancer->unix_path(), -1);
  if (!unix_conns.ok()) return unix_conns.error();
  auto default_conns = connect_all(plan, "", fleet.balancer->tcp_port(), false);
  if (!default_conns.ok()) return default_conns.error();
  const Level high = rung(conns, "high.tcp", kHigh, plan.high, false);
  const Level high_default =
      rung(views(default_conns.value()), "high.tcp.default", kHighDefault, plan.high, false);
  const Level high_unix = rung(views(unix_conns.value()), "high.unix", kHighUnix, plan.high, false);
  const Level traced = rung(conns, "high.traced", kHighTraced, plan.high, true);

  // SocketServer/Balancer::stats() fold a connection's peak message size in
  // when it closes: close the direct and Unix-front clients first.
  direct.value().clear();
  unix_conns.value().clear();
  default_conns.value().clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto p50_us = [](const Level& level) { return level_percentile(level, 50).value * 1e3; };
  add_metric(out, "serve.service_p50_us", p50_us(service), "us",
             level_percentile(service, 50).n);
  add_metric(out, "serve.service_p99_us", level_percentile(service, 99).value * 1e3, "us",
             level_percentile(service, 99).n);
  add_metric(out, "serve.socket_p50_us", p50_us(socket), "us", level_percentile(socket, 50).n);
  add_metric(out, "serve.wire_hop_us", p50_us(socket) - p50_us(service), "us");
  add_metric(out, "fleet.hop_us", p50_us(full) - p50_us(socket), "us");
  add_metric(out, "fleet.tcp_hop_us", p50_us(high_default) - p50_us(high_unix), "us");
  layer_fleet_stats(out, fleet);
  layer_stages(out, traced.extras.traces);
  add_process(out, high);
  for (const double p : {50.0, kTailPercentile}) {
    add_latency(out, p, "low", full);
    add_latency(out, p, "high", high);
  }
  capacity(out, plan, s, full, high, wire_step(conns, "fleet", false),
           [&](double seconds, std::uint64_t stream, std::size_t& ok) {
             return run_wire_saturation(conns, seconds, kSaturationWindow, options.seed,
                                        stream, plan.payload, corpus, reference, ok,
                                        out.failed, out.mismatched);
           });
  add_harness(out, high, traced);
  return out;
}

// --- offline workload ---------------------------------------------------------------

rc::Result<RunResult> run_offline(const RunOptions& options, const Plan& plan,
                                  const std::vector<CorpusKernel>& corpus, SpanLog& spans) {
  RunResult out;
  const auto units = offline_units(options.seed, corpus, kOfflineUnits);
  std::vector<double> times;
  std::vector<double> steals;
  std::shared_ptr<const repro::core::FrequencyModel> model;
  std::vector<std::pair<std::size_t, Predictor::KernelPrediction>> first_replies;
  const int setups = options.trace ? 1 : plan.setups;
  for (int k = 0; k < setups; ++k) {
    // The paper's compile-time entry point: build the default predictor
    // with a fresh model-cache file (a cold train), then predict one unit.
    const std::string dir = options.work_dir + "/setup" + std::to_string(k);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const HostTicks host_before = host_ticks();
    const auto t0 = Clock::now();
    const std::int64_t setup_span = spans.open("setup");
    auto predictor = Predictor::builder().cache(dir + "/gpufreq_model_cache.txt").build();
    spans.add("core.train", t0, Clock::now(), setup_span);
    if (!predictor.ok()) return predictor.error();
    const std::size_t u = pick_kernel(options.seed, kFirstReply, k, units.size());
    auto first = predictor.value().predict_source(units[u].source, units[u].kernel);
    const double setup_s = seconds_between(t0, Clock::now());
    spans.close(setup_span);
    if (!first.ok()) return first.error();
    model = predictor.value().share_model();
    first_replies.emplace_back(u, std::move(first).take());
    times.push_back(setup_s);
    steals.push_back(steal_share(host_before, host_ticks()));
  }
  if (!options.trace) add_metric(out, "setup_s", kept_median(times, steals), "s", times.size());

  auto predictor = Predictor::from_model(model);
  if (!predictor.ok()) return predictor.error();
  auto oracle = Predictor::from_model(model);
  if (!oracle.ok()) return oracle.error();
  Reference reference;
  for (const auto& unit : units) {
    auto p = oracle.value().predict_source(unit.source, unit.kernel);
    if (!p.ok()) return p.error();
    reference.push_back(std::move(p).take());
  }
  for (const auto& [u, prediction] : first_replies) {
    ++out.attempted;
    if (!same_prediction(prediction, reference[u])) {
      ++out.failed;
      ++out.mismatched;
      out.correct = false;
    }
  }
  const Predictor& under_test = predictor.value();
  const double s = options.seconds;
  // One closed-loop repetition of `batch_size` units per call; repetition
  // r of a level draws from stream × 16 + r.
  const auto batches = [&](std::size_t batch_size, std::uint64_t stream, bool traced) {
    return [&, batch_size, stream, traced](double, double seconds, std::uint64_t rep,
                                           StepExtras& x) {
      StepSpec spec = spec_of(options, plan, 0.0, seconds, stream * 16 + rep);
      spec.spans = traced ? &spans : nullptr;
      spec.span_name = "offline.batch";
      spec.parent = traced ? spans.open("offline.level") : -1;
      StepResult step = run_offline_batches(under_test, units, reference, spec, batch_size, x);
      spans.close(spec.parent);
      return step;
    };
  };
  // Units per second of a level, over the repetitions kept_by_steal keeps.
  const auto throughput = [](const Level& level) {
    std::vector<double> rates;
    for (const auto& step : level.reps) rates.push_back(step.offered_rps);
    return kept_median(rates, steal_of(level.reps));
  };

  if (!options.trace) {
    // Closed loop: plan.reps back-to-back repetitions of 4-unit calls.
    warm_up(out, plan, 0, 0.05 * s, batches(kOfflineHighBatch, kWarmUp, false));
    const Level high = run_level(out, plan, "batch4", 0, 0.95 * s, plan.reps, true,
                                 batches(kOfflineHighBatch, kHigh, false));
    add_metric(out, "cpu_us_per_req", kept_median(high.cpu_us_per_req, steal_of(high.reps)),
             "us");
    return out;
  }

  std::vector<repro::clfront::StaticFeatures> features;
  for (const auto& unit : units) {
    auto f = under_test.pipeline().featurize(unit.source, unit.kernel);
    if (!f.ok()) return f.error();
    features.push_back(f.value());
  }
  add_metric(out, "core.train_s", median(spans.durations_us("core.train")) / 1e6, "s");
  add_metric(out, "core.train_samples", static_cast<double>(model->training_samples()),
             "count");
  layer_clfront(out, under_test, units, 0.1 * s, spans);
  layer_ml_pareto(out, *model, features, 0.04 * s, spans);
  layer_core_batch(out, under_test, features, 0.06 * s, spans);
  const std::vector<OfflineUnit> batch(units.begin(), units.begin() + kOfflineHighBatch);
  layer_parallel(out, under_test, batch, spans);
  const auto level = [&](const char* name, std::size_t batch_size, Stream stream,
                         bool traced) {
    return run_level(out, plan, name, 0, 0.2 * s, kReps, true,
                     batches(batch_size, stream, traced));
  };
  const Level low = level("batch1", kOfflineLowBatch, kLow, false);
  const Level high = level("batch4", kOfflineHighBatch, kHigh, false);
  const Level traced = level("batch4.traced", kOfflineHighBatch, kHighTraced, true);
  for (const double p : {50.0, kTailPercentile}) {
    add_latency(out, p, "low", low);
    add_latency(out, p, "high", high);
  }
  add_metric(out, "kernels_per_s", throughput(high), "1/s");
  // Goodput: the most units per second among the batch sizes whose calls
  // return within the limit.
  double best = 0.0;
  const auto consider = [&](const Level& level, std::size_t batch_size) {
    const bool pass = level_status(level.reps, plan.limit_ms) == RungStatus::kPass;
    note(out, "batch %2zu %8.1f units/s %s", batch_size, throughput(level),
         pass ? "pass" : "fail");
    if (pass) best = std::max(best, throughput(level));
  };
  consider(low, kOfflineLowBatch);
  consider(high, kOfflineHighBatch);
  for (std::size_t b : kOfflineRungBatches) {
    const Level rung = run_level(out, plan, "batch" + std::to_string(b), 0, 0.06 * s, kReps,
                                 false, batches(b, kLadder + b, false));
    consider(rung, b);
  }
  add_metric(out, "goodput_rps", best, "1/s");
  // No serve or fleet code runs in this workload: those layers read 0.
  for (const char* name :
       {"serve.codec_us.json", "serve.codec_us.binary", "serve.service_p50_us",
        "serve.service_p99_us", "serve.socket_p50_us", "serve.wire_hop_us", "fleet.hop_us",
        "fleet.tcp_hop_us", "serve.batch_size_mean", "serve.batches", "serve.shed",
        "serve.deadline_exceeded", "serve.protocol_errors", "serve.peak_message_bytes",
        "fleet.route_skew", "fleet.redispatches", "fleet.backend_failures",
        "stage.balancer_in_us", "stage.worker_queue_us", "stage.worker_execute_us",
        "stage.worker_reply_us", "stage.balancer_out_us"}) {
    add_metric(out, name, 0.0, "");
  }
  add_process(out, high);
  add_harness(out, high, traced);
  return out;
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"cpu_us_per_req", "us"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"p50_ms.low", "ms"},
      {"p50_ms.high", "ms"},
      {"p95_ms.low", "ms"},
      {"p95_ms.high", "ms"},
      {"goodput_rps", "1/s"},
      {"kernels_per_s", "1/s"},
      {"clfront.featurize_us", "us"},
      {"clfront.featurize_mb_s", "MB/s"},
      {"ml.regress_us", "us"},
      {"pareto.front_us", "us"},
      {"core.batch_us_per_kernel.b1", "us"},
      {"core.batch_us_per_kernel.b4", "us"},
      {"core.batch_us_per_kernel.b16", "us"},
      {"core.train_s", "s"},
      {"core.train_samples", "count"},
      {"common.parallel_efficiency", "ratio"},
      {"serve.service_p50_us", "us"},
      {"serve.service_p99_us", "us"},
      {"serve.socket_p50_us", "us"},
      {"serve.wire_hop_us", "us"},
      {"serve.codec_us.json", "us"},
      {"serve.codec_us.binary", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.batches", "count"},
      {"serve.shed", "count"},
      {"serve.deadline_exceeded", "count"},
      {"serve.protocol_errors", "count"},
      {"serve.peak_message_bytes", "bytes"},
      {"fleet.hop_us", "us"},
      {"fleet.tcp_hop_us", "us"},
      {"fleet.route_skew", "ratio"},
      {"fleet.redispatches", "count"},
      {"fleet.backend_failures", "count"},
      {"proc.threads", "count"},
      {"proc.ctxsw_per_req", "count"},
      {"stage.balancer_in_us", "us"},
      {"stage.worker_queue_us", "us"},
      {"stage.worker_execute_us", "us"},
      {"stage.worker_reply_us", "us"},
      {"stage.balancer_out_us", "us"},
      {"harness.gen_lag_p99_ms", "ms"},
      {"harness.sent", "count"},
      {"harness.ok", "count"},
      {"harness.failed", "count"},
      {"harness.steal_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

bool known_workload(const std::string& name) {
  return name == "wire_features" || name == "paper_source" || name == "offline_tu";
}

rc::Result<RunResult> run_workload(const RunOptions& options, SpanLog& spans) {
  auto corpus = repo_kernels();
  if (!corpus.ok()) return corpus.error();
  const Plan& plan = plan_for(options.workload);
  const HostTicks before = host_ticks();
  auto result = plan.serving ? run_serving(options, plan, corpus.value(), spans)
                             : run_offline(options, plan, corpus.value(), spans);
  if (result.ok()) {
    RunResult& out = result.value();
    out.inputs_digest = inputs_digest(options.seed, corpus.value(), 4096, kOfflineUnits);
    out.steal_share = steal_share(before, host_ticks());
    if (options.trace) add_metric(out, "harness.steal_pct", 100.0 * out.steal_share, "%");
  }
  return result;
}

}  // namespace perfbench
