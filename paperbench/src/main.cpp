/**
 * @file
 * paperbench — drive the simulator on the paper workload and report raw
 * per-step host times and engine counters as one JSON document.
 *
 * Usage:
 *   paperbench --workload paper-uk|paper-pdom|serve-sweep --seed N
 *              --seconds S --trace 0|1 --threads N --work DIR
 *              [--smoke] [--trace-out FILE]
 *
 * Workloads (see paperbench/README.md for why each exists):
 *   paper-uk     µ-kernel, conference, 256x256 rays, 300k cycles; the
 *                seed shifts the ray grid by a sub-pixel offset (the
 *                default seed 0x5eed keeps the shipped camera)
 *   paper-pdom   traditional PDOM kernel, same point
 *   serve-sweep  {pdom, uk} x {conference, fairyforest, atrium} x two
 *                seeded small resolutions through an in-process
 *                ServerEngine: a cold pass, then warm (cache-hit) passes
 *
 * Every leg drives run() through runUntil chunks with a host-speed
 * probe between them (speed.hpp). With --trace 0 1-thread legs repeat
 * until --seconds is spent. With --trace 1 each of these runs once: an
 * untraced leg at --threads host threads and at 1 thread, a traced leg
 * at 1 thread (a span around every call), and a leg with the event
 * trace and counter export on; the spans go to --trace-out as
 * Chrome-trace JSON. Only the traced run has an N-thread leg: on a
 * shared host one such paper leg takes anywhere from 4 to 30 s, which
 * would leave the timed run too few 1-thread samples.
 *
 * --smoke shrinks every point (tiny scenes, few cycles) so the whole
 * pipeline runs in seconds; the tests use it.
 *
 * The document goes to stdout; run.py turns it into metrics and
 * checks the digests. Exit status 0 when the document was written
 * (check failures are listed in it), 2 on usage errors.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness/serialize.hpp"
#include "leg.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/result_cache.hpp"
#include "serve/sha256.hpp"
#include "spans.hpp"
#include "speed.hpp"

using namespace uksim;
using namespace paperbench;

namespace {

/// Warm engine passes of the traced run, and per 1-thread paper leg.
constexpr int kWarmPasses = 3;
constexpr int kWarmPassesPerLeg = 15;
/// Cycle cap of a serve job: every job of the batch drains well before
/// it (the slowest needs ~420k cycles), so the cap only bounds a hang.
constexpr uint64_t kServeCycleCap = 2000000;
/// Setup samples a run collects at least (extra setup-only legs).
constexpr size_t kMinSetupSamples = 9;

struct Options {
    std::string workload;
    uint64_t seed = 0x5eed;
    double seconds = 10;
    bool trace = false;
    int threads = 1;
    std::string work;
    std::string traceOut;
    bool smoke = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "paperbench: %s\nusage: paperbench --workload W --seed N "
                 "--seconds S --trace 0|1 --threads N --work DIR [--smoke] "
                 "[--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value(), nullptr, 0);
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = value() == "1";
            else if (a == "--threads")
                o.threads = std::stoi(value());
            else if (a == "--work")
                o.work = value();
            else if (a == "--trace-out")
                o.traceOut = value();
            else if (a == "--smoke")
                o.smoke = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload != "paper-uk" && o.workload != "paper-pdom" &&
        o.workload != "serve-sweep")
        usage("unknown workload '" + o.workload + "'");
    if (o.work.empty())
        usage("--work is required");
    const int cores =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    o.threads = std::clamp(o.threads, 1, cores);
    return o;
}

// --- JSON output -------------------------------------------------------------

std::string
num(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string
str(const std::string &s)
{
    return "\"" + serve::jsonEscape(s) + "\"";
}

std::string
obj(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m)
        out += (out.size() > 1 ? ", " : "") + str(k) + ": " + num(v);
    return out + "}";
}

std::string
list(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); i++)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

std::string
nums(const std::vector<double> &v)
{
    std::vector<std::string> s;
    for (double d : v)
        s.push_back(num(d));
    return list(s);
}

std::string
strs(const std::vector<std::string> &v)
{
    std::vector<std::string> s;
    for (const std::string &x : v)
        s.push_back(str(x));
    return list(s);
}

// --- Run state ---------------------------------------------------------------

struct Run {
    Options opts;
    ReferenceCache refs;
    std::vector<std::string> legJson;
    std::vector<std::string> failures;
    uint64_t attempted = 0;
    int pass = 0;
    /// digest of each point's first leg (serve cross-check)
    std::map<std::string, std::string> digestOf;
    /// one payload file per point, for the independent digest check
    std::map<std::string, std::string> payloadFiles;
    std::vector<std::string> engineJson;
    /// (point, result_sha256) of every cold engine job
    std::vector<std::pair<std::string, std::string>> engineSha;
    double jobHashS = 0.0;
    /// spans the traced leg (or pass) recorded
    size_t spanCount = 0;
    std::unique_ptr<SpanLog> spans;
    /// per-name span totals of the traced 1-thread leg (or pass)
    std::map<std::string, SpanTotals> spanTable;
    /// seeded camera jitter of the paper legs (serve legs keep 0)
    float jitterX = 0.0f;
    float jitterY = 0.0f;

    void fail(const std::string &why)
    {
        failures.push_back(why);
        std::fprintf(stderr, "paperbench: CHECK FAILED: %s\n", why.c_str());
    }

    void record(const LegResult &r, const std::string &mode)
    {
        attempted++;
        for (const std::string &f : r.failures)
            fail(f);
        if (!r.digest.empty()) {
            digestOf.emplace(r.point, r.digest);
            if (!payloadFiles.count(r.point)) {
                const std::string path =
                    opts.work + "/payload-" +
                    std::to_string(payloadFiles.size()) + ".bin";
                std::ofstream(path, std::ios::binary)
                    .write(reinterpret_cast<const char *>(r.payload.data()),
                           std::streamsize(r.payload.size()));
                payloadFiles[r.point] = path;
            }
        }
        legJson.push_back(
            "{\"pass\": " + std::to_string(pass) + ", \"mode\": " +
            str(mode) + ", \"threads\": " + std::to_string(r.threads) +
            ", \"point\": " + str(r.point) + ", \"digest\": " +
            str(r.digest) + ", \"ok\": " +
            (r.failures.empty() ? "true" : "false") + ", \"t\": " +
            obj(r.t) + ", \"c\": " + obj(r.c) + "}");
    }
};

/** The paper point as a serve job; its resolved config is the point's. */
serve::JobSpec
paperSpec(const Options &o)
{
    serve::JobSpec spec;
    spec.name = o.workload == "paper-uk" ? "uk_conference"
                                         : "pdom_conference";
    spec.label = spec.name;
    if (o.smoke) {
        spec.detail = 2;
        spec.res = 32;
        spec.cycles = 20000;
        spec.sms = 4;
    }
    return spec;
}

/** splitmix64 step: the seed's deterministic stream. */
uint64_t
nextRandom(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The serve batch: {pdom, uk} x three scenes x two resolutions. Each
 * kernel deals the small resolutions {14, 16, 18} and the large ones
 * {30, 32, 34} to the three scenes in a seeded order, so every seed
 * submits different jobs but the same total number of rays. Every job
 * drains to completion.
 */
std::vector<serve::JobSpec>
serveBatch(const Options &o)
{
    uint64_t state = o.seed;
    const char *scenes[3] = {"conference", "fairyforest", "atrium"};
    std::vector<serve::JobSpec> jobs;
    for (const char *kernel : {"pdom", "uk"}) {
        int small[3] = {14, 16, 18};
        int large[3] = {30, 32, 34};
        for (int *pool : {small, large}) {
            for (int i = 2; i > 0; i--)
                std::swap(pool[i], pool[nextRandom(state) % uint64_t(i + 1)]);
        }
        for (int k = 0; k < 3; k++) {
            for (int res : {small[k], large[k]}) {
                serve::JobSpec spec;
                spec.name = std::string(kernel) + "_" + scenes[k];
                spec.res = o.smoke ? res / 2 : res;
                spec.label = spec.name + "_" + std::to_string(spec.res);
                spec.cycles = kServeCycleCap;
                if (o.smoke) {
                    spec.detail = 2;
                    spec.sms = 2;
                }
                jobs.push_back(spec);
            }
        }
    }
    return jobs;
}

/**
 * Whether another repetition of mean length @p repS fits: the run may
 * overshoot --seconds by at most half a repetition, so on average it
 * measures for --seconds.
 */
bool
moreTime(Clock::time_point t0, double repS, const Options &o)
{
    return secondsSince(t0) + repS / 2 <= o.seconds;
}

LegResult
leg(Run &run, const harness::ExperimentConfig &config, int threads,
    const std::string &mode)
{
    LegOptions lo;
    lo.config = config;
    lo.threads = threads;
    if (mode == "traced")
        lo.spans = run.spans.get();
    lo.events = mode == "events";
    if (lo.events)
        lo.config.traceEvents = lo.config.exportCounters = true;
    lo.setupOnly = mode == "setup";
    lo.jitterX = run.jitterX;
    lo.jitterY = run.jitterY;
    LegResult r = runLeg(lo, run.refs);
    run.record(r, mode);
    return r;
}

/**
 * The seed's input variation for the paper points: a sub-pixel shift of
 * the ray grid. The default seed keeps the shipped camera (no shift).
 */
void
seedJitter(uint64_t seed, float &jx, float &jy)
{
    jx = jy = 0.0f;
    if (seed == 0x5eed)
        return;
    uint64_t state = seed;
    auto unit = [&] {
        return float(double(nextRandom(state) >> 11) * 0x1.0p-53) - 0.5f;
    };
    jx = unit();
    jy = unit();
}

/**
 * An in-process ServerEngine over a fresh result cache: one cold pass
 * computes the batch (or preload() stores a computed payload), and
 * every warm pass after it must be all cache hits with the cold
 * digests. Job latencies come from the engine's own events: each event
 * is a RefClock mark as it reaches the sink, so latencies and the batch
 * time are at the reference host speed (speed.hpp).
 */
class ServeEngineRun
{
  public:
    ServeEngineRun(Run &run, std::vector<serve::JobSpec> jobs)
        : run_(run), jobs_(std::move(jobs)),
          dir_(run.opts.work + "/cache-serve"), engine_(options(dir_))
    {
    }
    ~ServeEngineRun() { std::filesystem::remove_all(dir_); }
    ServeEngineRun(const ServeEngineRun &) = delete;
    ServeEngineRun &operator=(const ServeEngineRun &) = delete;

    void cold() { pass(true); }
    void warm() { pass(false); }

    /**
     * Store @p payload as the result of the (single) job, as a cold
     * pass would, so warm passes serve it. The payload is what a leg
     * of the same point computed (a seeded camera shift aside, which
     * changes the rays but not the payload's size or shape).
     */
    void preload(const std::vector<uint8_t> &payload)
    {
        const serve::JobSpec &spec = jobs_.at(0);
        Scope s(run_.spans.get(), "serve.jobHash");
        const auto t0 = Clock::now();
        const std::string hash = serve::jobHash(serve::resolveJobSpec(spec));
        run_.jobHashS = secondsSince(t0);
        serve::ResultCache(dir_).store(hash, payload);
        coldSha_[spec.label] = serve::sha256Hex(payload);
    }

  private:
    static serve::EngineOptions options(const std::string &dir)
    {
        std::filesystem::remove_all(dir);
        serve::EngineOptions eo;
        eo.cacheDir = dir;
        eo.workers = 0;
        return eo;
    }

    void pass(bool cold)
    {
        // The serve engine's own default: one host thread per job.
        setenv("UKSIM_THREADS", "1", 1);
        std::vector<double> started(jobs_.size(), -1.0);
        std::vector<double> latency(jobs_.size(), 0.0);
        double lastEvent = 0.0;
        RefClock clock;
        auto sink = [&](const std::string &line) {
            clock.mark();
            const double now = clock.refS();
            const serve::JsonValue ev = serve::parseJson(line);
            const std::string kind = ev.stringOr("event", "");
            const size_t job = size_t(ev.u64Or("job", 0));
            if (kind == "job_started" && job < jobs_.size()) {
                started[job] = now;
            } else if (kind == "job_done" && job < jobs_.size()) {
                // Cold: job_started -> job_done. Warm hits have no
                // job_started; a hit's latency is the gap since the
                // previous event of the pass.
                const bool timed = cold && started[job] >= 0;
                latency[job] = now - (timed ? started[job] : lastEvent);
            }
            lastEvent = now;
        };
        serve::BatchManifest m;
        {
            Scope s(run_.spans.get(),
                    cold ? "serve.runBatch.cold" : "serve.runBatch.warm");
            m = engine_.runBatch(jobs_, sink);
        }
        clock.mark();
        for (const serve::JobReport &r : m.jobs) {
            run_.attempted++;
            const std::string what = std::string(cold ? "cold" : "warm") +
                                     " job " + r.spec.label;
            if (r.outcome == "error" || r.outcome == "rejected") {
                run_.fail(what + ": " + r.error);
            } else if (cold) {
                coldSha_[r.spec.label] = r.resultSha256;
                run_.engineSha.emplace_back(
                    pointKey(serve::resolveJobSpec(r.spec)), r.resultSha256);
            } else if (!r.cacheHit ||
                       r.resultSha256 != coldSha_[r.spec.label]) {
                run_.fail(what + ": not a cache hit with the cold digest");
            }
        }
        run_.engineJson.push_back(
            "{\"pass\": " + std::to_string(run_.pass) + ", \"cold\": " +
            (cold ? "true" : "false") + ", \"batch_s\": " +
            num(clock.refS()) + ", \"batch_raw_s\": " + num(clock.rawS()) +
            ", \"submitted\": " + std::to_string(jobs_.size()) +
            ", \"computed\": " + std::to_string(m.computed) +
            ", \"cache_hits\": " + std::to_string(m.cacheHits) +
            ", \"failed\": " + std::to_string(m.failed) +
            ", \"latency_s\": " + nums(latency) + "}");
    }

    Run &run_;
    const std::vector<serve::JobSpec> jobs_;
    std::string dir_;
    serve::ServerEngine engine_;
    std::map<std::string, std::string> coldSha_;
};

void
paperWorkload(Run &run)
{
    const Options &o = run.opts;
    const serve::JobSpec spec = paperSpec(o);
    const harness::ExperimentConfig config = serve::resolveJobSpec(spec);
    seedJitter(o.seed, run.jitterX, run.jitterY);
    // The paper point's cache-hit path: the serve engine serves the
    // payload of the first 1-thread leg from its result cache.
    std::unique_ptr<ServeEngineRun> engine;
    auto hits = [&](const LegResult &r, int passes) {
        if (!engine && !r.digest.empty()) {
            engine = std::make_unique<ServeEngineRun>(
                run, std::vector<serve::JobSpec>{spec});
            engine->preload(r.payload);
        }
        for (int i = 0; engine && i < passes; i++)
            engine->warm();
    };
    size_t setups = 0;
    if (o.trace) {
        // The plain 1-thread leg runs warm, after the N-thread one, so
        // the trace overheads compare warm legs.
        leg(run, config, o.threads, "plain");
        run.pass = 1;
        hits(leg(run, config, 1, "plain"), kWarmPasses);
        run.pass = 2;
        const size_t mark = run.spans->size();
        leg(run, config, 1, "traced");
        run.spanTable = run.spans->totals(mark);
        run.spanCount = run.spans->size() - mark;
        run.pass = 3;
        leg(run, config, 1, "events");
        for (setups = 4; setups < kMinSetupSamples; setups++)
            leg(run, config, 1, "setup");
        return;
    }
    // 1-thread legs until the time is spent, each after a setup-only
    // leg (the first warms the process up); setup samples and cache hits
    // are spread over the run too, so every statistic covers the whole
    // run rather than one moment of it.
    const auto t0 = Clock::now();
    double repsS = 0.0;
    for (int reps = 0; reps == 0 || moreTime(t0, repsS / reps, o); reps++) {
        const auto p0 = Clock::now();
        run.pass = reps;
        leg(run, config, 1, "setup");
        hits(leg(run, config, 1, "plain"), kWarmPassesPerLeg);
        setups += 2;
        repsS += secondsSince(p0);
    }
    for (; setups < kMinSetupSamples; setups++)
        leg(run, config, 1, "setup");
}

/**
 * One pass of the serve batch, driven leg by leg outside the engine;
 * with @p warm, a warm engine pass follows every leg so the cache-hit
 * samples spread over the whole run.
 */
void
serveDirectPass(Run &run, const std::vector<serve::JobSpec> &jobs,
                int threads, const std::string &mode,
                ServeEngineRun *warm = nullptr)
{
    for (const serve::JobSpec &spec : jobs) {
        harness::ExperimentConfig config = serve::resolveJobSpec(spec);
        const LegResult r = leg(run, config, threads, mode);
        if (r.c.count("ran_to_completion") && !r.c.at("ran_to_completion"))
            run.fail(r.point + ": serve job did not drain");
        if (warm)
            warm->warm();
    }
}

void
serveWorkload(Run &run)
{
    const Options &o = run.opts;
    const std::vector<serve::JobSpec> jobs = serveBatch(o);
    {
        // The per-job hash the engine computes before any cache probe.
        Scope s(run.spans.get(), "serve.jobHash");
        const auto t0 = Clock::now();
        for (const serve::JobSpec &spec : jobs)
            serve::jobHash(serve::resolveJobSpec(spec));
        run.jobHashS = secondsSince(t0);
    }
    if (o.trace) {
        // N threads first, so the plain 1-thread pass runs warm.
        serveDirectPass(run, jobs, o.threads, "plain");
        run.pass++;
        serveDirectPass(run, jobs, 1, "plain");
        run.pass++;
        size_t mark = run.spans->size();
        serveDirectPass(run, jobs, 1, "traced");
        run.spanTable = run.spans->totals(mark);
        run.spanCount = run.spans->size() - mark;
        run.pass++;
        serveDirectPass(run, jobs, 1, "events");
        Scope engineSpan(run.spans.get(), "serve.engine");
        ServeEngineRun engine(run, jobs);
        engine.cold();
        for (int i = 0; i < kWarmPasses; i++)
            engine.warm();
    } else {
        // Rounds until the time is spent: a cold engine pass, then the
        // batch leg by leg at 1 thread, with a warm engine pass after
        // every leg.
        const auto t0 = Clock::now();
        double roundS = 0.0;
        for (int rounds = 0;
             rounds == 0 || moreTime(t0, roundS / rounds, o); rounds++) {
            const auto r0 = Clock::now();
            ServeEngineRun engine(run, jobs);
            run.pass = rounds;
            engine.cold();
            serveDirectPass(run, jobs, 1, "plain", &engine);
            roundS += secondsSince(r0);
        }
    }
    // The engine must return, for every job, the payload the directly
    // driven leg of the same point produced.
    for (const auto &[point, sha] : run.engineSha) {
        auto it = run.digestOf.find(point);
        run.attempted++;
        if (it == run.digestOf.end() || it->second != sha)
            run.fail(point + ": engine result_sha256 differs from the "
                             "directly driven leg");
    }
}

/** Host seconds one span costs: an open and a close into a log. */
double
spanCostS()
{
    constexpr int kSpans = 100000;
    SpanLog log(0);
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; i++)
        Scope s(&log, "simt.runUntil");
    return secondsSince(t0) / kSpans;
}

std::string
spanTableJson(const Run &run)
{
    std::vector<std::string> rows;
    for (const auto &[name, t] : run.spanTable)
        rows.push_back(str(name) + ": {\"count\": " + std::to_string(t.count) +
                       ", \"total_s\": " + num(t.totalS) +
                       ", \"self_s\": " + num(t.selfS) + "}");
    std::string out = "{";
    for (size_t i = 0; i < rows.size(); i++)
        out += (i ? ", " : "") + rows[i];
    return out + "}";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Run run;
    run.opts = parseArgs(argc, argv);
    const Options &o = run.opts;
    // No ambient UKSIM_* variable may change the measured program; each
    // leg sets UKSIM_THREADS itself.
    clearSimulatorEnv();
    initProbes();
    std::filesystem::create_directories(o.work);
    if (o.trace) {
        const uint64_t runId =
            (uint64_t(Clock::now().time_since_epoch().count()) << 16) ^
            uint64_t(getpid());
        run.spans = std::make_unique<SpanLog>(runId);
    }

    try {
        if (o.workload == "serve-sweep")
            serveWorkload(run);
        else
            paperWorkload(run);
    } catch (const std::exception &e) {
        run.attempted++;
        run.fail(std::string("workload aborted: ") + e.what());
    }

    if (run.spans && !o.traceOut.empty())
        std::ofstream(o.traceOut) << run.spans->chromeJson();

    std::vector<std::string> refs;
    for (const auto &[key, e] : run.refs.byScene)
        refs.push_back(str(key) + ": " + num(e.seconds));
    std::vector<std::string> payloads;
    for (const auto &[point, path] : run.payloadFiles)
        payloads.push_back(str(point) + ": " + str(path));
    auto joinObj = [](const std::vector<std::string> &kv) {
        std::string out = "{";
        for (size_t i = 0; i < kv.size(); i++)
            out += (i ? ", " : "") + kv[i];
        return out + "}";
    };

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << "{\"workload\": " << str(o.workload)
              << ", \"seed\": " << o.seed << ", \"trace\": " << o.trace
              << ", \"smoke\": " << o.smoke
              << ", \"host_cores\": " << std::thread::hardware_concurrency()
              << ", \"threads_n\": " << o.threads
              << ", \"build_type\": " << str(PAPERBENCH_BUILD_TYPE)
              << ", \"compiler\": " << str(PAPERBENCH_COMPILER)
              << ", \"peak_rss_mb\": " << num(double(ru.ru_maxrss) / 1024.0)
              << ", \"attempted\": " << run.attempted
              << ", \"failures\": " << strs(run.failures)
              << ", \"run_id\": " << (run.spans ? run.spans->runId() : 0)
              << ", \"reference_s\": " << joinObj(refs)
              << ", \"payloads\": " << joinObj(payloads)
              << ", \"job_hash_s\": " << num(run.jobHashS)
              << ", \"span_count\": " << run.spanCount
              << ", \"span_cost_s\": " << num(o.trace ? spanCostS() : 0.0)
              << ", \"engine\": " << list(run.engineJson)
              << ", \"spans\": " << spanTableJson(run)
              << ", \"legs\": " << list(run.legJson) << "}\n";
    return 0;
}
