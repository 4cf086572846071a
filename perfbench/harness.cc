/**
 * @file
 * Host-speed benchmark harness. Runs one named workload (a batch of
 * suite programs on the base and PUBS machines) through the simulator's
 * public entry points and prints one JSON document on stdout: the
 * timings, the deterministic guest output (SweepResult::statsJson()) and
 * the work counters. perfbench/run.py builds this, checks the guest
 * output against pinned digests and turns the document into the
 * benchmark's metrics; see perfbench/README.md.
 *
 * Everything is measured from outside: the harness times calls into
 * wl::makeWorkload, sim::Simulator, bench::runSweep and
 * sim::CheckpointStore, reads the public counters of cpu::Pipeline and
 * its parts, and sees the emulator through TracedEmulator. No simulator
 * source carries a benchmark hook.
 *
 *   perfbench_harness --workload NAME --scratch DIR [--seed N]
 *                     [--seconds S] [--trace 0|1]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "common/bench_util.hh"
#include "common/error.hh"
#include "common/stats.hh"
#include "cpu/cpi_stack.hh"
#include "emu/emulator.hh"
#include "mem/memory_system.hh"
#include "pubs/slice_unit.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

extern char **environ;

namespace
{

using namespace pubs;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * One benchmark workload. The budgets are pinned here, never taken
 * from the PUBS_BENCH_* environment, so a run measures the same guest
 * work on every host. Why each workload exists is in README.md.
 */
struct WorkloadDef
{
    const char *name;
    std::vector<const char *> programs;
    uint64_t warmup;
    uint64_t measure;
};

const std::vector<WorkloadDef> workloadDefs = {
    {"dbp_compute",
     {"astar_like", "bzip2_like", "gcc_like", "gobmk_like",
      "perlbench_like", "sjeng_like", "xalancbmk_like"},
     40000, 120000},
    {"mem_bound", {"mcf_like", "omnetpp_like", "soplex_like"}, 40000,
     60000},
    {"ebp_stream",
     {"bwaves_like", "gromacs_like", "h264ref_like", "hmmer_like",
      "lbm_like", "libquantum_like", "milc_like", "namd_like"},
     40000, 120000},
};

const std::pair<sim::Machine, const char *> machines[] = {
    {sim::Machine::Base, "base"},
    {sim::Machine::Pubs, "pubs"},
};

/** Instructions per program replayed through single structures. */
constexpr size_t probeInsts = 60000;

/**
 * The emulator as the pipeline sees it, with every next() timed and
 * counted. Deriving from emu::Emulator (rather than holding one) hands
 * sim::Simulator the same kind of source the untraced runs give it, and
 * program() is inherited unchanged, so wrong-path synthesis sees the
 * same program.
 */
class TracedEmulator : public emu::Emulator
{
  public:
    using emu::Emulator::Emulator;

    bool
    next(trace::DynInst &out) override
    {
        Clock::time_point start = Clock::now();
        bool ok = step(out);
        self += Clock::now() - start;
        steps += ok ? 1 : 0;
        return ok;
    }

    uint64_t steps = 0;
    Clock::duration self{};
};

/**
 * Keeps the harness on the least contended of the CPUs it may use. On
 * the host this benchmark was tuned on, a CPU runs the simulator at full
 * or at about half speed, depending on what shares its core, and each
 * CPU changes state on its own every few seconds (README.md). choose()
 * times a short reference loop on every allowed CPU and pins the calling
 * thread to the fastest; the sweep's pool thread, started after it,
 * inherits the pin. Without affinity control (or with one CPU) it does
 * nothing.
 */
class CpuChooser
{
  public:
    CpuChooser()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &set))
                    cpus_.push_back(cpu);
        }
        uint64_t x = 88172645463325252ULL;
        for (uint32_t &v : table_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = (uint32_t)x;
        }
    }

    /** Pin to the CPU whose reference loop is fastest now. */
    void
    choose()
    {
        if (cpus_.size() < 2)
            return;
        double fastest = 0;
        int chosen = -1;
        for (int cpu : cpus_) {
            if (!pin(cpu))
                return;
            probe(); // warms this core's caches after the move
            double best = probe();
            for (int i = 0; i < 2; ++i)
                best = std::min(best, probe());
            if (chosen < 0 || best < fastest) {
                fastest = best;
                chosen = cpu;
            }
        }
        pin(chosen);
    }

  private:
    static bool
    pin(int cpu)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        return sched_setaffinity(0, sizeof set, &set) == 0;
    }

    /** About 20 us of dependent, branchy loads over 128 KiB. */
    double
    probe()
    {
        Clock::time_point start = Clock::now();
        uint32_t idx = 0;
        uint64_t acc = 0;
        for (int i = 0; i < 8000; ++i) {
            uint32_t v = table_[idx];
            if (v & 1)
                acc += v;
            else
                acc ^= v >> 3;
            idx = (idx + v) & (table_.size() - 1);
        }
        sink_ += acc;
        return since(start);
    }

    std::vector<int> cpus_;
    std::array<uint32_t, 1 << 15> table_;
    uint64_t sink_ = 0;
};

/**
 * Cost of the timer around TracedEmulator::next: @c inside is what one
 * empty timed interval reads, @c pair the full cost of the two clock
 * reads. Subtracted per step so emulator and pipeline self time do not
 * absorb the tracing cost.
 */
struct TimerCost
{
    double inside = 0.0;
    double pair = 0.0;
};

TimerCost
calibrateTimer()
{
    constexpr int n = 200000;
    Clock::duration inside{};
    Clock::time_point start = Clock::now();
    for (int i = 0; i < n; ++i) {
        Clock::time_point a = Clock::now();
        inside += Clock::now() - a;
    }
    TimerCost cost;
    cost.pair = since(start) / n;
    cost.inside = std::chrono::duration<double>(inside).count() / n;
    return cost;
}

/** Deterministic work counters, summed over the runs of a workload. */
using Counters = std::map<std::string, uint64_t>;

/** Counters carried by RunResult::pipeline (available untraced too). */
void
addPipelineCounters(Counters &c, const cpu::PipelineStats &s)
{
    c["cpu.cycles"] += s.cycles;
    c["cpu.committed"] += s.committed;
    c["cpu.fetched"] += s.fetched;
    c["cpu.wrong_path_fetched"] += s.wrongPathFetched;
    c["cpu.squashed"] += s.squashed;
    c["branch.cond_branches"] += s.condBranches;
    c["branch.cond_mispredicts"] += s.condMispredicts;
    c["branch.btb_miss_bubbles"] += s.btbMissBubbles;
    c["mem.llc_misses"] += s.llcMisses;
    c["mem.l1d.accesses"] += s.l1dAccesses;
    c["mem.l1d.misses"] += s.l1dMisses;
    c["iq.issued"] += s.issued;
    c["iq.issue_conflict_cycles"] += s.issueConflictCycles;
    c["iq.wait_sum"] += s.iqWaitSum;
    c["iq.occupancy_sum"] += s.iqOccupancy.sum();
    c["iq.occupancy_samples"] += s.iqOccupancy.samples();
    c["pubs.priority_dispatches"] += s.priorityDispatches;
    c["pubs.priority_stall_cycles"] += s.priorityStallCycles;
    for (size_t i = 0; i < cpu::numCpiComponents; ++i) {
        c[std::string("cpu.cpi.") +
          cpu::cpiComponentName((cpu::CpiComponent)i)] += s.cpi.cycles[i];
    }
}

/** Counters only the in-process traced run can read. */
void
addStructureCounters(Counters &c, const cpu::Pipeline &p)
{
    const mem::MemorySystem &m = p.memory();
    c["mem.l1i.accesses"] += m.l1i().demandAccesses();
    c["mem.l1i.misses"] += m.l1i().demandMisses();
    c["mem.l2.accesses"] += m.l2().demandAccesses();
    c["mem.l2.misses"] += m.l2().demandMisses();
    c["mem.prefetch_fills"] += m.l1d().prefetchFills() +
                               m.l2().prefetchFills();
    c["mem.useful_prefetches"] += m.l1d().usefulPrefetches() +
                                  m.l2().usefulPrefetches();
    c["mem.mshr_hits"] += m.l1d().mshrHits() + m.l2().mshrHits();
    if (const ::pubs::pubs::SliceUnit *unit = p.sliceUnit()) {
        c["pubs.dynamic_branches"] += unit->dynamicBranches();
        c["pubs.unconfident_branches"] += unit->unconfidentBranches();
    }
}

/** Host timings of one traced pass, in seconds unless named otherwise. */
struct Spans
{
    double build = 0, construct = 0, run = 0, measure = 0;
    /** Emulator time inside the run() spans, timer cost included. */
    double emuRaw = 0;
    uint64_t emuSteps = 0;
    /** Simulated cycles of the run() calls, warmup included. */
    uint64_t runCycles = 0;
    double pubsEnabledSum = 0;
    unsigned pubsRuns = 0;
    double wall = 0;
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory for the layer probe's checkpoint store. */
    std::string scratch;
};

class Harness
{
  public:
    Harness(const WorkloadDef &def, const Args &args)
        : def_(def), args_(args)
    {
        // Pin every sweep knob runSweep would otherwise read from the
        // command line or the PUBS_* environment.
        bench::setBenchJobs(1);
        bench::setBenchProcs(0);
        bench::setResume(false);
        bench::setTraceEventsPath("");
        bench::setReportPath("");
        bench::setProgress(false);
        bench::setCpiStack(false);
        bench::setBranchProfile(false);
        bench::setSampleWindows(0);
        bench::setSamplePeriod(0);
        bench::setCheckpointDir("");
        bench::setJournalPath("");
    }

    void run();

  private:
    std::vector<wl::Workload> buildPrograms(double &seconds) const;
    bench::SweepSpec makeSpec(const std::vector<wl::Workload> &progs) const;
    void untracedRep();
    void tracedPass();
    sim::RunResult tracedRun(const bench::SweepItem &item, Spans &spans,
                             Counters &counters);
    void probe(const std::vector<wl::Workload> &progs);
    void noteStats(const std::string &stats);
    void layerMetrics(std::map<std::string, double> &m) const;
    void print() const;

    const WorkloadDef &def_;
    const Args &args_;

    // Untraced repetitions. runS_[r][k] is the wall time of the
    // runSweep call for run k in repetition r, measureS_[r][k] its
    // measurement phase.
    std::vector<double> setupS_, sweepS_, kips_, harnessS_;
    std::vector<std::vector<double>> runS_, measureS_;
    uint64_t repInsts_ = 0;
    uint64_t attempted_ = 0, failed_ = 0;
    Counters untracedCounters_;
    bool countersRepeat_ = true;
    /** Distinct statsJson() documents seen, with how often. */
    std::vector<std::pair<std::string, unsigned>> stats_;

    // Traced pass.
    std::vector<Spans> spans_;
    Counters tracedCounters_;
    std::string tracedStats_;
    TimerCost timer_;
    CpuChooser cpus_;
    std::map<std::string, double> probe_;
};

std::vector<wl::Workload>
Harness::buildPrograms(double &seconds) const
{
    Clock::time_point start = Clock::now();
    std::vector<wl::Workload> progs;
    for (const char *name : def_.programs)
        progs.push_back(wl::makeWorkload(name, args_.seed));
    seconds = since(start);
    return progs;
}

bench::SweepSpec
Harness::makeSpec(const std::vector<wl::Workload> &progs) const
{
    bench::SweepSpec spec;
    spec.warmup = def_.warmup;
    spec.insts = def_.measure;
    spec.jobs = 1;
    spec.procs = 0;
    spec.verbose = false;
    for (const auto &[machine, label] : machines)
        for (const wl::Workload &w : progs)
            spec.add(w, sim::makeConfig(machine), label);
    return spec;
}

/** Fastest reading of each column over the rows, summed. */
double
sumOfColumnMinima(const std::vector<std::vector<double>> &rows)
{
    double sum = 0;
    for (size_t k = 0; k < rows.front().size(); ++k) {
        double best = rows.front()[k];
        for (const std::vector<double> &row : rows)
            best = std::min(best, row[k]);
        sum += best;
    }
    return sum;
}

void
Harness::noteStats(const std::string &stats)
{
    for (auto &[text, count] : stats_) {
        if (text == stats) {
            ++count;
            return;
        }
    }
    stats_.emplace_back(stats, 1);
}

/**
 * One untraced repetition: set-up (program generation + one Simulator
 * construction per run, then discarded), then the workload through
 * bench::runSweep, one run per call so that each run's wall time is
 * known.
 */
void
Harness::untracedRep()
{
    cpus_.choose();
    double build = 0;
    std::vector<wl::Workload> progs = buildPrograms(build);
    bench::SweepSpec spec = makeSpec(progs);
    double construct = 0;
    for (const bench::SweepItem &item : spec.items) {
        Clock::time_point start = Clock::now();
        auto simulator = std::make_unique<sim::Simulator>(
            item.params, item.workload.program);
        construct += since(start);
    }

    std::vector<bench::SweepSpec> single;
    for (bench::SweepItem &item : spec.items) {
        single.push_back(makeSpec({}));
        single.back().items.push_back(std::move(item));
    }
    bench::SweepResult pass;
    std::vector<double> runS, measureS;
    double wall = 0, busy = 0, measured = 0;
    uint64_t insts = 0;
    Counters counters;
    for (const bench::SweepSpec &one : single) {
        cpus_.choose();
        Clock::time_point start = Clock::now();
        bench::SweepResult part = bench::runSweep(one);
        runS.push_back(since(start));
        wall += runS.back();
        busy += part.busySeconds / std::max(1u, part.jobs);
        bench::SweepRow &row = part.rows.front();
        insts += row.result.instructions;
        measured += row.result.simSeconds;
        measureS.push_back(row.result.simSeconds);
        addPipelineCounters(counters, row.result.pipeline);
        pass.rows.push_back(std::move(row));
    }
    attempted_ += pass.rows.size();
    failed_ += pass.failed();
    noteStats(pass.statsJson());
    if (untracedCounters_.empty())
        untracedCounters_ = counters;
    else if (counters != untracedCounters_)
        countersRepeat_ = false;

    setupS_.push_back(build + construct);
    sweepS_.push_back(wall);
    kips_.push_back(measured > 0 ? (double)insts / measured / 1000.0 : 0);
    harnessS_.push_back(wall - busy);
    runS_.push_back(std::move(runS));
    measureS_.push_back(std::move(measureS));
    repInsts_ = insts;
}

sim::RunResult
Harness::tracedRun(const bench::SweepItem &item, Spans &spans,
                   Counters &counters)
{
    Clock::time_point start = Clock::now();
    auto source = std::make_unique<TracedEmulator>(item.workload.program);
    TracedEmulator &emu = *source;
    sim::Simulator simulator(item.params, std::move(source));
    spans.construct += since(start);

    start = Clock::now();
    sim::RunResult result = simulator.run(def_.warmup, def_.measure);
    spans.run += since(start);
    spans.runCycles += simulator.pipeline().now();
    spans.emuRaw += std::chrono::duration<double>(emu.self).count();
    spans.emuSteps += emu.steps;
    spans.measure += result.simSeconds;
    addStructureCounters(counters, simulator.pipeline());
    if (simulator.pipeline().modeSwitch()) {
        spans.pubsEnabledSum += result.pubsEnabledFraction;
        ++spans.pubsRuns;
    }
    return result;
}

/**
 * One traced pass over the workload: the same runs as the untraced
 * sweep, made serially in this process with a span around each call.
 */
void
Harness::tracedPass()
{
    Spans spans;
    Clock::time_point wallStart = Clock::now();
    std::vector<wl::Workload> progs = buildPrograms(spans.build);
    bench::SweepSpec spec = makeSpec(progs);
    bench::SweepResult result;
    Counters counters;
    for (const bench::SweepItem &item : spec.items) {
        cpus_.choose();
        bench::SweepRow row;
        try {
            row.result = tracedRun(item, spans, counters);
        } catch (const SimError &error) {
            row.error = error.what();
            row.errorKind = SimError::kindName(error.kind());
        }
        row.result.workload = item.workload.name;
        row.result.machine = item.machine;
        ++attempted_;
        failed_ += row.ok() ? 0 : 1;
        addPipelineCounters(counters, row.result.pipeline);
        result.rows.push_back(std::move(row));
    }
    spans.wall = since(wallStart);

    // Every traced pass must reproduce the first one.
    counters["emu.steps"] = spans.emuSteps;
    std::string stats = result.statsJson();
    if (tracedStats_.empty()) {
        tracedStats_ = stats;
        tracedCounters_ = counters;
    } else {
        if (counters != tracedCounters_)
            countersRepeat_ = false;
        if (stats != tracedStats_)
            tracedStats_ = "mismatch between traced passes";
    }
    spans_.push_back(spans);
}

/**
 * Per-structure costs on the workload's real streams: record the first
 * probeInsts correct-path instructions of each program from
 * emu::Emulator, replay them through the predictor, the PUBS slice unit
 * and the memory hierarchy of the PUBS machine, and time one
 * fast-forward of the same length and a checkpoint round trip through
 * sim::CheckpointStore: a lookup that misses, save, a lookup that hits
 * and restore.
 */
void
Harness::probe(const std::vector<wl::Workload> &progs)
{
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    double bpS = 0, decodeS = 0, memS = 0, ffS = 0, saveS = 0,
           restoreS = 0;
    uint64_t lookups = 0, decodes = 0, accesses = 0, ffInsts = 0,
             bytes = 0, hits = 0, misses = 0;
    std::string storeDir = args_.scratch + "/ckpt";
    std::filesystem::remove_all(storeDir);
    sim::CheckpointStore store(storeDir);
    for (const wl::Workload &w : progs) {
        cpus_.choose();
        std::vector<trace::DynInst> insts;
        insts.reserve(probeInsts);
        emu::Emulator emu(w.program);
        trace::DynInst di;
        while (insts.size() < probeInsts && emu.step(di))
            insts.push_back(di);

        std::vector<bool> correct;
        auto predictor = branch::makePredictor(params.predictor);
        Clock::time_point start = Clock::now();
        for (const trace::DynInst &inst : insts) {
            if (!inst.isCondBranch())
                continue;
            correct.push_back(predictor->predict(inst.pc) == inst.taken);
            predictor->update(inst.pc, inst.taken);
        }
        bpS += since(start);
        lookups += correct.size();

        ::pubs::pubs::SliceUnit unit(params.pubs);
        size_t branch = 0;
        start = Clock::now();
        for (const trace::DynInst &inst : insts) {
            unit.decode(inst);
            if (inst.isCondBranch())
                unit.branchResolved(inst.pc, correct[branch++]);
        }
        decodeS += since(start);
        decodes += insts.size();

        mem::MemorySystem memory(params.memory);
        Cycle now = 0;
        start = Clock::now();
        for (const trace::DynInst &inst : insts) {
            memory.fetchAccess(inst.pc, now);
            if (inst.isMem())
                memory.dataAccess(inst.effAddr, inst.isStore(), now);
            ++now;
        }
        memS += since(start);
        for (const trace::DynInst &inst : insts)
            accesses += inst.isMem() ? 2 : 1;

        sim::Simulator source(params, w.program);
        sim::CheckpointMeta meta;
        meta.workload = w.program.name();
        meta.machine = "pubs";
        meta.programCrc = sim::programFingerprint(w.program);
        meta.paramsFp = sim::paramsFingerprint(params);
        start = Clock::now();
        meta.skipInsts = source.fastForward(insts.size());
        ffS += since(start);
        ffInsts += meta.skipInsts;

        std::string ckpt;
        start = Clock::now();
        bool hit = store.load(meta, ckpt);
        restoreS += since(start);
        (hit ? hits : misses) += 1;
        start = Clock::now();
        ckpt = source.saveCheckpoint("pubs");
        store.save(meta, ckpt);
        saveS += since(start);
        bytes += ckpt.size();

        std::string stored;
        sim::Simulator target(params, w.program);
        start = Clock::now();
        hit = store.load(meta, stored);
        target.restoreCheckpoint(stored);
        restoreS += since(start);
        (hit ? hits : misses) += 1;
    }
    std::filesystem::remove_all(storeDir);
    probe_["branch.ns_per_lookup"] = bpS * 1e9 / (double)lookups;
    probe_["pubs.ns_per_decode"] = decodeS * 1e9 / (double)decodes;
    probe_["mem.ns_per_access"] = memS * 1e9 / (double)accesses;
    probe_["ff_s"] = ffS;
    probe_["ff_insts"] = (double)ffInsts;
    probe_["ckpt_save_s"] = saveS;
    probe_["ckpt_restore_s"] = restoreS;
    probe_["ckpt_bytes"] = (double)bytes;
    probe_["ckpt_hits"] = (double)hits;
    probe_["ckpt_misses"] = (double)misses;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
peakRssMb()
{
    struct rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return (double)std::max(self.ru_maxrss, children.ru_maxrss) / 1024.0;
}

void
Harness::run()
{
    std::filesystem::create_directories(args_.scratch);
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args_.seconds));
    if (!args_.trace) {
        do {
            untracedRep();
        } while (Clock::now() < deadline);
    } else {
        // Two untraced repetitions give the reference output and the
        // untraced sweep time the tracing overhead is taken against.
        cpus_.choose();
        timer_ = calibrateTimer();
        untracedRep();
        untracedRep();
        do {
            tracedPass();
        } while (Clock::now() < deadline);
        double build = 0;
        probe(buildPrograms(build));
    }
    print();
}

std::string
quoted(const std::string &s)
{
    return '"' + jsonEscape(s) + '"';
}

void
printCounters(const Counters &counters)
{
    std::printf("{");
    const char *sep = "";
    for (const auto &[name, value] : counters) {
        std::printf("%s%s: %llu", sep, quoted(name).c_str(),
                    (unsigned long long)value);
        sep = ", ";
    }
    std::printf("}");
}

/**
 * Per-layer metrics of the traced run. Spans are medians over the
 * traced passes; counters are equal across passes (checked). The timer
 * cost of TracedEmulator is taken back out of the spans it inflates.
 */
void
Harness::layerMetrics(std::map<std::string, double> &m) const
{
    auto med = [&](auto field) {
        std::vector<double> xs;
        for (const Spans &s : spans_)
            xs.push_back(field(s));
        return median(xs);
    };
    const Spans &first = spans_.front();
    const Counters &c = tracedCounters_;
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    double tracing = timer_.pair - timer_.inside;

    m["workloads.build_s"] = med([](const Spans &s) { return s.build; });
    m["sim.construct_s"] = med([](const Spans &s) { return s.construct; });
    m["sim.measure_s"] = med([](const Spans &s) { return s.measure; });
    m["sim.warmup_s"] =
        med([](const Spans &s) { return s.run - s.measure; });
    m["sim.harness_s"] = median(harnessS_);
    double emuSelf = med([&](const Spans &s) {
        return s.emuRaw - (double)s.emuSteps * timer_.inside;
    });
    double cpuSelf = med([&](const Spans &s) {
        return s.run - s.emuRaw - (double)s.emuSteps * tracing;
    });
    m["emu.self_s"] = emuSelf;
    m["emu.ns_per_step"] = ratio(emuSelf * 1e9, (double)first.emuSteps);
    m["cpu.self_s"] = cpuSelf;
    m["cpu.host_ns_per_cycle"] = ratio(cpuSelf * 1e9, (double)first.runCycles);

    // Fast-forward and checkpoint figures come from the layer probe's
    // one fast-forward and store round trip per program.
    m["sim.fastforward_s"] = probe_.at("ff_s");
    m["sim.ff_ns_per_inst"] =
        ratio(probe_.at("ff_s") * 1e9, probe_.at("ff_insts"));
    m["sim.ckpt_save_s"] = probe_.at("ckpt_save_s");
    m["sim.ckpt_restore_s"] = probe_.at("ckpt_restore_s");
    m["sim.ckpt_bytes"] = probe_.at("ckpt_bytes");
    m["sim.ckpt_hits"] = probe_.at("ckpt_hits");
    m["sim.ckpt_misses"] = probe_.at("ckpt_misses");
    for (const char *name :
         {"branch.ns_per_lookup", "pubs.ns_per_decode", "mem.ns_per_access"})
        m[name] = probe_.at(name);

    for (const auto &[name, value] : c)
        m[name] = (double)value;
    double committed = (double)c.at("cpu.committed");
    m["cpu.fetched_per_committed"] =
        ratio((double)c.at("cpu.fetched"), committed);
    m["cpu.issued_per_committed"] =
        ratio((double)c.at("iq.issued"), committed);
    m["iq.avg_wait"] =
        ratio((double)c.at("iq.wait_sum"), (double)c.at("iq.issued"));
    m["iq.avg_occupancy"] = ratio((double)c.at("iq.occupancy_sum"),
                                  (double)c.at("iq.occupancy_samples"));
    m["pubs.unconfident_branch_rate"] =
        ratio((double)c.at("pubs.unconfident_branches"),
              (double)c.at("pubs.dynamic_branches"));
    m["pubs.enabled_fraction"] =
        ratio(first.pubsEnabledSum, (double)first.pubsRuns);

    double traced = med([](const Spans &s) { return s.wall; });
    m["trace.sweep_s"] = traced;
    m["trace.overhead_s"] = traced - sumOfColumnMinima(runS_);
    m["trace.timer_pair_ns"] = timer_.pair * 1e9;
}

void
Harness::print() const
{
    std::map<std::string, double> m;
    if (!args_.trace) {
        // The host runs the harness at full speed or at half speed, and
        // switches between the two within seconds, so a median over one
        // run follows the share of slow time it happened to catch.
        // Each run's fastest repetition estimates its uncontended time;
        // their sum is the workload's. Medians of whole repetitions stay
        // in the record for reference. See README.md.
        m["sweep_s"] = sumOfColumnMinima(runS_);
        m["kips"] =
            (double)repInsts_ / sumOfColumnMinima(measureS_) / 1000.0;
        m["setup_s"] = median(setupS_);
        m["sweep_s_median"] = median(sweepS_);
        m["kips_median"] = median(kips_);
    } else {
        layerMetrics(m);
    }
    m["peak_rss_mb"] = peakRssMb();

    std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d",
                quoted(def_.name).c_str(), (unsigned long long)args_.seed,
                args_.trace ? 1 : 0);
    std::printf(", \"reps\": %zu", sweepS_.size());
    std::printf(", \"attempted\": %llu, \"failed\": %llu",
                (unsigned long long)attempted_,
                (unsigned long long)failed_);
    std::printf(", \"jobs\": 1, \"procs\": 0");
    std::printf(", \"build\": {\"compiler\": %s, \"build_type\": %s, "
                "\"flags\": %s, \"lto\": %s, \"simd\": %s, \"march\": %s}",
                quoted(PERFBENCH_COMPILER).c_str(),
                quoted(PERFBENCH_BUILD_TYPE).c_str(),
                quoted(PERFBENCH_FLAGS).c_str(),
                quoted(PERFBENCH_LTO).c_str(),
                quoted(PERFBENCH_SIMD).c_str(),
                quoted(PERFBENCH_MARCH).c_str());
    auto printSeries = [](const char *name, const std::vector<double> &xs) {
        std::printf(", \"%s\": [", name);
        for (size_t i = 0; i < xs.size(); ++i)
            std::printf("%s%.9g", i ? ", " : "", xs[i]);
        std::printf("]");
    };
    printSeries("sweep_s_reps", sweepS_);
    printSeries("setup_s_reps", setupS_);
    printSeries("kips_reps", kips_);
    std::printf(", \"counters_repeat\": %s",
                countersRepeat_ ? "true" : "false");
    std::printf(", \"stats\": [");
    for (size_t i = 0; i < stats_.size(); ++i) {
        std::printf("%s{\"count\": %u, \"json\": %s}", i ? ", " : "",
                    stats_[i].second, quoted(stats_[i].first).c_str());
    }
    std::printf("], \"untraced_counters\": ");
    printCounters(untracedCounters_);
    if (args_.trace) {
        std::printf(", \"traced_stats\": %s, \"traced_counters\": ",
                    quoted(tracedStats_).c_str());
        printCounters(tracedCounters_);
    }
    std::printf(", \"metrics\": {");
    const char *sep = "";
    for (const auto &[name, value] : m) {
        std::printf("%s%s: %.9g", sep, quoted(name).c_str(), value);
        sep = ", ";
    }
    std::printf("}}\n");
}

[[noreturn]] void
usage(const char *error)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench_harness --workload NAME "
                 "--scratch DIR [--seed N] [--seconds S] [--trace 0|1]\n",
                 error);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--scratch") {
            args.scratch = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && (*end || end == value.c_str()))
            usage(("bad number for " + flag).c_str());
    }
    if (args.scratch.empty())
        usage("--scratch is required");
    if (args.seconds <= 0 || args.seconds > 3600)
        usage("--seconds must be in (0, 3600]");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs)
        if (args.workload == d.name)
            def = &d;
    if (!def)
        usage(("unknown workload '" + args.workload + "'").c_str());

    // The benchmark pins every knob itself; a PUBS_* variable left in
    // the environment (budget, procs, fault injection) must not leak in.
    std::vector<std::string> inherited;
    for (char **env = environ; *env; ++env)
        if (std::strncmp(*env, "PUBS_", 5) == 0)
            inherited.emplace_back(*env, std::strcspn(*env, "="));
    for (const std::string &name : inherited)
        unsetenv(name.c_str());

    Harness harness(*def, args);
    harness.run();
    return 0;
}
