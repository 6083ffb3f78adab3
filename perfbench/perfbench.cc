/**
 * @file
 * The repository benchmark: one workload per invocation, in one
 * process, one simulated machine (or fleet) at a time.
 *
 *   perfbench --workload micro|serve|fleet|kmodule --seed N
 *             --seconds S --trace 0|1 [--spans-out FILE]
 *
 * A run repeats the workload until S host seconds have passed (at
 * least three times) and reports medians over the repetitions. Every
 * repetition builds its machines from scratch, because users pay
 * set-up on every run. Each layer is measured from outside, by timing
 * the benchmark's own calls into that layer and by reading each
 * machine's sim::StatSet before the machine is destroyed.
 *
 * Host time is what this program takes; simulated cycles are the
 * reproduction's output. The only end-to-end use of simulated cycles
 * is paper_err_pct, the distance of the simulated VG/native ratios
 * from the paper's. Every other simulated number is a per-layer count,
 * held fixed by sim_digest, which must repeat exactly across the
 * repetitions of one seed.
 *
 * With --trace 1, every other repetition records spans around the same
 * calls; the run prints the per-layer metrics, including span self
 * times, the time no span covers and the cost of tracing against the
 * untraced repetitions. The last line of stdout is one JSON object.
 */

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "apps/lmbench.hh"
#include "apps/ssh_common.hh"
#include "apps/thttpd.hh"
#include "fleet/fleet.hh"
#include "kernel/system.hh"
#include "measure.hh"
#include "sim/interleave.hh"

using namespace vg;
using perfbench::Digest;
using perfbench::PaperRow;

namespace
{

using StatMap = std::map<std::string, uint64_t>;

/** Everything one repetition of a workload measured. */
struct Rep
{
    bool traced = false;
    double hostS = 0;
    double setupS = 0;
    /** The host-speed reference, timed right after the repetition:
     *  perfbench::freshFillSeconds() and perfbench::handoffSeconds(). */
    double freshFillS = 0;
    double handoffS = 0;
    /** Host seconds per timed boundary (kernel.system_ctor, ...). */
    std::map<std::string, double> layerS;
    /** Process CPU seconds per timed boundary. */
    std::map<std::string, double> layerCpuS;
    /** Every counter of every machine, summed. */
    StatMap stats;
    double sysS = 0, userS = 0;
    uint64_t volCtxSwitches = 0;
    std::vector<PaperRow> paperRows;
    uint64_t digest = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Host time of each client call, keyed "<layer>.<config>.<size>". */
    std::map<std::string, std::vector<double>> pools;
    uint64_t fleetRequests = 0;
};

/** The harness a workload drives: timing scopes, spans, checks and
 *  the per-machine stat collector. */
class Bench
{
  public:
    Bench(uint64_t seed, perfbench::Tracer &tracer)
        : seed(seed), _tracer(tracer)
    {
    }

    const uint64_t seed;
    Rep rep;
    Digest digest;

    /** Run @p fn as one call into layer @p layer: its host time is
     *  added to the layer's total and, when tracing, a span is kept. */
    template <class Fn>
    double
    timed(const std::string &layer, Fn &&fn, uint64_t group = 0)
    {
        uint64_t span = _tracer.enabled ? _tracer.open(layer, group) : 0;
        double c0 = perfbench::cpuNow();
        double t0 = perfbench::hostNow();
        fn();
        double dt = perfbench::hostNow() - t0;
        rep.layerCpuS[layer] += perfbench::cpuNow() - c0;
        if (span)
            _tracer.close(span);
        rep.layerS[layer] += dt;
        return dt;
    }

    /** One client call whose host time also lands in the pool of
     *  (@p layer, @p config, @p size). */
    template <class Fn>
    void
    request(const std::string &layer, const std::string &config,
            const std::string &size, Fn &&fn)
    {
        rep.pools[layer + "." + config + "." + size].push_back(
            timed(layer, std::forward<Fn>(fn), ++_requestId));
    }

    /** Count one checked operation; a false @p ok is a failure. */
    void
    check(bool ok, const std::string &what)
    {
        rep.attempted++;
        if (!ok) {
            rep.failed++;
            std::printf("FAILED: %s\n", what.c_str());
        }
    }

    /** Fold one machine's counters into the repetition totals and the
     *  digest. Host-time counters (*.wall_ns) are summed but kept out
     *  of the digest. */
    void
    collect(const StatMap &stats)
    {
        for (const auto &[k, v] : stats) {
            rep.stats[k] += v;
            if (k.find("wall_ns") == std::string::npos) {
                digest.str(k);
                digest.u64(v);
            }
        }
    }

    std::unique_ptr<kern::System>
    boot(const kern::SystemConfig &cfg)
    {
        std::unique_ptr<kern::System> sys;
        timed("kernel.system_ctor",
              [&] { sys = std::make_unique<kern::System>(cfg); });
        timed("kernel.boot", [&] { sys->boot(); });
        return sys;
    }

    /** Collect @p sys's counters, then destroy it. */
    void
    retire(std::unique_ptr<kern::System> &sys)
    {
        collect(sys->ctx().stats().all());
        timed("kernel.system_dtor", [&] { sys.reset(); });
    }

    /** Run @p main as a process on @p sys to completion. */
    void
    run(kern::System &sys, const std::string &what,
        std::function<int(kern::UserApi &)> main)
    {
        int rc = -1;
        timed("kernel.run",
              [&] { rc = sys.runProcess(what, std::move(main)); });
        check(rc == 0, what + " exited with " + std::to_string(rc));
    }

    /** Simulated VG/native ratio against the paper's; also checks that
     *  VG is not faster than native on identical work. */
    void
    paperRow(const std::string &name, double sim, double paper,
             bool vgNotFaster)
    {
        rep.paperRows.push_back({name, sim, paper});
        digest.f64(sim);
        check(vgNotFaster, name + ": VG faster than native");
    }

  private:
    perfbench::Tracer &_tracer;
    uint64_t _requestId = 0;
};

kern::SystemConfig
machineConfig(sim::VgConfig vg, uint64_t seed)
{
    kern::SystemConfig cfg;
    cfg.vg = vg;
    cfg.vg.seed = seed;
    cfg.memFrames = 16 * 1024;  // 64 MB
    cfg.diskBlocks = 32 * 1024; // 128 MB
    cfg.rsaBits = 384;
    return cfg;
}

const struct
{
    const char *name;
    sim::VgConfig vg;
} kConfigs[] = {{"native", sim::VgConfig::native()},
                {"vg", sim::VgConfig::full()}};

/** Seeded file content, planted straight into the machine's fs. */
std::vector<uint8_t>
content(uint64_t seed, uint64_t bytes)
{
    std::vector<uint8_t> out(bytes);
    sim::SplitMix64 rng(seed);
    for (uint64_t i = 0; i < bytes; i += 8) {
        uint64_t w = rng.next();
        for (uint64_t j = 0; j < 8 && i + j < bytes; j++)
            out[i + j] = uint8_t(w >> (8 * j));
    }
    return out;
}

void
plant(Bench &b, kern::System &sys, const std::string &path,
      const std::vector<uint8_t> &data)
{
    b.timed("fs.plant", [&] {
        kern::Ino ino = 0;
        sys.kernel().fs().create(path, ino);
        for (uint64_t off = 0; off < data.size(); off += 64 * 1024)
            sys.kernel().fs().write(
                ino, off, data.data() + off,
                std::min<uint64_t>(64 * 1024, data.size() - off));
    });
}

std::string
sizeName(uint64_t bytes)
{
    return bytes >= (1u << 20) ? std::to_string(bytes >> 20) + "MB"
                               : std::to_string(bytes >> 10) + "KB";
}

// --- micro: Table 2 --------------------------------------------------

struct MicroRow
{
    const char *name;
    double (*fn)(kern::UserApi &, uint64_t);
    uint64_t iters;
    double paperOverhead; ///< VG/native latency, Table 2
};

double
forkExit(kern::UserApi &api, uint64_t n)
{
    return apps::latForkExit(api, n);
}
double
forkExec(kern::UserApi &api, uint64_t n)
{
    return apps::latForkExec(api, n);
}
double
select100(kern::UserApi &api, uint64_t n)
{
    return apps::latSelect(api, n, 100);
}

const MicroRow kMicroRows[] = {
    {"null_syscall", apps::latNullSyscall, 5000, 3.90},
    {"open_close", apps::latOpenClose, 5000, 4.83},
    {"mmap", apps::latMmap, 5000, 4.70},
    {"page_fault", apps::latPageFault, 1250, 1.15},
    {"signal_install", apps::latSignalInstall, 5000, 3.24},
    {"signal_delivery", apps::latSignalDelivery, 5000, 1.61},
    {"fork_exit", forkExit, 500, 4.40},
    {"fork_exec", forkExec, 500, 4.20},
    {"select", select100, 5000, 3.40},
};

/** Latency of @p row on a freshly booted machine (microseconds). */
double
microRow(Bench &b, const MicroRow &row, sim::VgConfig vg)
{
    auto sys = b.boot(machineConfig(vg, b.seed));
    double us = 0;
    b.run(*sys, row.name, [&](kern::UserApi &api) {
        us = row.fn(api, row.iters);
        return 0;
    });
    b.retire(sys);
    return us;
}

void
micro(Bench &b)
{
    for (const MicroRow &row : kMicroRows) {
        double nat = microRow(b, row, kConfigs[0].vg);
        double vg = microRow(b, row, kConfigs[1].vg);
        b.check(nat > 0, std::string(row.name) + " native latency");
        b.paperRow(row.name, vg / nat, row.paperOverhead, vg >= nat);
    }
}

// --- serve: Figures 2 and 3 ------------------------------------------

struct ServeSize
{
    uint64_t bytes;
    unsigned httpRequests;
    unsigned sshSessions;
};

const ServeSize kServeSizes[] = {
    {1u << 10, 192, 8}, {4u << 10, 192, 8}, {16u << 10, 96, 6},
    {64u << 10, 48, 4}, {256u << 10, 16, 4}, {1u << 20, 8, 4},
};

/** Simulated cycles per size for one configuration. */
using SizeCycles = std::vector<uint64_t>;

SizeCycles
serveHttp(Bench &b, const char *config, sim::VgConfig vg)
{
    auto sys = b.boot(machineConfig(vg, b.seed));
    uint64_t total = 0;
    for (const ServeSize &s : kServeSizes) {
        plant(b, *sys, "/f" + sizeName(s.bytes),
              content(b.seed ^ s.bytes, s.bytes));
        total += s.httpRequests;
    }

    SizeCycles cycles(std::size(kServeSizes), 0);
    b.run(*sys, "thttpd", [&](kern::UserApi &api) {
        uint64_t srv = api.fork([&](kern::UserApi &capi) {
            apps::ThttpdConfig cfg;
            cfg.maxRequests = total;
            return apps::thttpd(capi, cfg);
        });
        api.yield();
        for (size_t i = 0; i < std::size(kServeSizes); i++) {
            const ServeSize &s = kServeSizes[i];
            std::string path = "/f" + sizeName(s.bytes);
            for (unsigned r = 0; r < s.httpRequests; r++) {
                apps::AbResult ab;
                b.request("apps.http_request_host_us", config,
                          sizeName(s.bytes), [&] {
                              ab = apps::apacheBench(api, path, 1);
                          });
                cycles[i] += ab.cycles;
                b.check(ab.failures == 0 && ab.requests == 1 &&
                            ab.bytes == s.bytes,
                        std::string("http ") + config + " " + path);
            }
        }
        int status = 0;
        api.waitpid(srv, status);
        return status;
    });
    b.retire(sys);
    return cycles;
}

SizeCycles
serveSsh(Bench &b, const char *config, sim::VgConfig vg)
{
    auto sys = b.boot(machineConfig(vg, b.seed));
    crypto::AesKey key{};
    for (size_t i = 0; i < key.size(); i++)
        key[i] = uint8_t(b.seed >> (8 * (i % 8))) ^ uint8_t(i);
    sva::AppBinary bin = sys->vm().packageApp("openssh", "ssh-code", key);
    int sessions = 0;
    for (const ServeSize &s : kServeSizes) {
        plant(b, *sys, "/p" + sizeName(s.bytes),
              content(b.seed + s.bytes, s.bytes));
        sessions += int(s.sshSessions);
    }

    SizeCycles cycles(std::size(kServeSizes), 0);
    b.run(*sys, "sshd", [&](kern::UserApi &api) {
        int status = 0;
        uint64_t kg = api.fork([&](kern::UserApi &capi) {
            return capi.execve(&bin, [](kern::UserApi &napi) {
                return apps::sshKeygen(napi);
            });
        });
        api.waitpid(kg, status);
        if (status != 0)
            return status;
        uint64_t srv = api.fork([&](kern::UserApi &capi) {
            apps::SshdConfig cfg;
            cfg.maxConnections = sessions;
            return apps::sshd(capi, cfg);
        });
        for (int i = 0; i < 4; i++)
            api.yield();
        uint64_t cli = api.fork([&](kern::UserApi &capi) {
            return capi.execve(&bin, [&](kern::UserApi &napi) {
                for (size_t i = 0; i < std::size(kServeSizes); i++) {
                    const ServeSize &s = kServeSizes[i];
                    std::string path = "/p" + sizeName(s.bytes);
                    for (unsigned k = 0; k < s.sshSessions; k++) {
                        apps::SshResult r;
                        uint64_t c0 = napi.kernel().ctx().clock().now();
                        b.request("apps.ssh_session_host_ms", config,
                                  sizeName(s.bytes), [&] {
                                      r = apps::sshFetch(napi, path,
                                                         false);
                                  });
                        cycles[i] +=
                            napi.kernel().ctx().clock().now() - c0;
                        b.check(r.ok && r.bytes == s.bytes,
                                std::string("ssh ") + config + " " +
                                    path);
                    }
                }
                return 0;
            });
        });
        api.waitpid(cli, status);
        int srv_status = 0;
        api.waitpid(srv, srv_status);
        return status | srv_status;
    });
    b.retire(sys);
    return cycles;
}

void
serve(Bench &b)
{
    SizeCycles http[2], ssh[2];
    for (int c = 0; c < 2; c++)
        http[c] = serveHttp(b, kConfigs[c].name, kConfigs[c].vg);
    for (int c = 0; c < 2; c++)
        ssh[c] = serveSsh(b, kConfigs[c].name, kConfigs[c].vg);

    // Figure 2: VG bandwidth equals native at every size.
    for (size_t i = 0; i < std::size(kServeSizes); i++)
        b.paperRow("thttpd_" + sizeName(kServeSizes[i].bytes),
                   double(http[0][i]) / double(http[1][i]), 1.00,
                   http[1][i] >= http[0][i]);

    // Figure 3: 23% mean and 45% worst bandwidth reduction, as
    // VG/native bandwidth ratios 0.77 and 0.55.
    double sum = 0, worst = 1;
    bool slower = true;
    for (size_t i = 0; i < std::size(kServeSizes); i++) {
        double ratio = double(ssh[0][i]) / double(ssh[1][i]);
        sum += ratio;
        worst = std::min(worst, ratio);
        slower = slower && ssh[1][i] >= ssh[0][i];
    }
    b.paperRow("sshd_mean", sum / double(std::size(kServeSizes)), 0.77,
               slower);
    b.paperRow("sshd_worst", worst, 0.55, slower);
}

// --- fleet -----------------------------------------------------------

/** Requests served by one machine under thttpdMulti with a
 *  concurrent client; returns the simulated cycles the client took. */
uint64_t
fleetCalibrate(Bench &b, sim::VgConfig vg)
{
    const uint64_t requests = 200;
    const unsigned concurrency = 16;
    auto sys = b.boot(machineConfig(vg, b.seed));
    plant(b, *sys, "/file.bin", content(b.seed, 4096));
    uint64_t cycles = 0;
    b.run(*sys, "calibrate", [&](kern::UserApi &api) {
        uint64_t srv = api.fork([&](kern::UserApi &capi) {
            apps::ThttpdMultiConfig cfg;
            cfg.maxRequests = requests;
            cfg.maxConcurrent = concurrency * 2;
            return apps::thttpdMulti(capi, cfg);
        });
        api.yield();
        apps::AbResult ab = apps::apacheBenchConcurrent(
            api, "/file.bin", requests, concurrency);
        cycles = ab.cycles;
        b.check(ab.failures == 0 && ab.requests == requests &&
                    ab.bytes == requests * 4096,
                "calibrate responses");
        int status = 0;
        api.waitpid(srv, status);
        return status;
    });
    b.retire(sys);
    return cycles;
}

void
fleetPhase(Bench &b, const std::string &name, fleet::FleetConfig cfg)
{
    cfg.machines = 4;
    cfg.system.vg = sim::VgConfig::full();
    cfg.system.vg.vcpus = 2;
    cfg.system.vg.seed = b.seed;
    cfg.system.rsaBits = 384;

    std::optional<fleet::Fleet> f;
    fleet::FleetResult res;
    b.timed("fleet.provision", [&] {
        f.emplace(cfg);
        f->provision();
    });
    b.timed("fleet.run", [&] { res = f->run(); });
    for (const StatMap &m : res.machineStats)
        b.collect(m);
    b.timed("kernel.system_dtor", [&] { f.reset(); });

    b.rep.fleetRequests += cfg.requests;
    b.rep.attempted += cfg.requests;
    b.rep.failed += cfg.requests - std::min(cfg.requests, res.served);
    b.check(res.served == cfg.requests && res.failures == 0 &&
                res.dropped == 0 && res.tenantFailures == 0,
            name + ": served " + std::to_string(res.served) + "/" +
                std::to_string(cfg.requests) + ", failures " +
                std::to_string(res.failures) + ", dropped " +
                std::to_string(res.dropped) + ", tenant failures " +
                std::to_string(res.tenantFailures));
    for (const std::string &line : res.requestLog)
        b.digest.str(line);
    for (uint64_t us : res.latencyUs)
        b.digest.u64(us);
    b.digest.u64(res.fleetTimeUs);
    b.digest.u64(res.epochs);
    b.rep.stats["fleet.epochs"] += res.epochs;
}

void
fleetWorkload(Bench &b)
{
    uint64_t nat = fleetCalibrate(b, kConfigs[0].vg);
    uint64_t vg = fleetCalibrate(b, kConfigs[1].vg);
    // Figure 2 again, under concurrent load: VG throughput = native.
    b.paperRow("thttpd_concurrent", double(nat) / double(vg), 1.00,
               vg >= nat);

    fleet::FleetConfig open;
    open.tenants = 32;
    open.system.memFrames = 4096;
    open.system.diskBlocks = 8 * 1024;
    open.policy = fleet::LbPolicy::ConsistentHash;
    open.mode = fleet::TrafficMode::OpenLoop;
    open.requests = 1200;
    open.openLoopRps = 1200000.0;
    open.knobs.concurrency = 16;
    open.knobs.serverSlots = 48;
    open.knobs.ghostPagesPerTenant = 8;
    fleetPhase(b, "open_ch", open);

    fleet::FleetConfig closed = open;
    closed.policy = fleet::LbPolicy::LeastConn;
    closed.mode = fleet::TrafficMode::ClosedLoop;
    closed.closedLoopUsers = 64;
    closed.thinkTimeUs = 200;
    fleetPhase(b, "closed_lc", closed);

    // Small machines and fat ghost working sets: the tenants served by
    // one machine in an epoch want more frames than it has, so ghost
    // pages are sealed out to swap and faulted back in. Least-conn
    // spreads every tenant over every machine, so the swap volume
    // depends little on where the seed's hash ring puts tenants. Swap is
    // an eighth of the disk; 16K blocks leave room for the working sets
    // (with 8K, slots run out and allocGhost refuses).
    fleet::FleetConfig pressure;
    pressure.tenants = 16;
    pressure.system.memFrames = 1536;
    pressure.system.diskBlocks = 16 * 1024;
    pressure.policy = fleet::LbPolicy::LeastConn;
    pressure.mode = fleet::TrafficMode::OpenLoop;
    pressure.requests = 200;
    pressure.openLoopRps = 50000.0;
    pressure.knobs.concurrency = 8;
    pressure.knobs.ghostPagesPerTenant = 128;
    fleetPhase(b, "pressure", pressure);
}

// --- kmodule ---------------------------------------------------------

/** A kernel module whose work(n, a, c) returns sum_{i<n} (i*a + c)
 *  through a stack slot, so every iteration pays the sandboxed load
 *  and store; mix() adds straight-line code to translate. */
std::string
moduleText(const std::string &name, uint64_t k)
{
    std::string t = "module \"" + name + "\"\n";
    t += R"(func @work(3) {
entry:
  %3 = const 0
  %4 = const 0
  br head
head:
  %5 = icmp ult %4, %0
  condbr %5, body, done
body:
  %6 = alloca 64
  %7 = mul %4, %1
  %8 = add %7, %2
  store.i64 %6, %8
  %9 = load.i64 %6
  %3 = add %3, %9
  %10 = const 1
  %4 = add %4, %10
  br head
done:
  ret %3
}
func @mix(2) {
entry:
)";
    t += "  %2 = const " + std::to_string(k & 0xffff) + "\n";
    for (int i = 0; i < 24; i++) {
        int r = 3 + i;
        t += "  %" + std::to_string(r) + " = " +
             (i % 3 == 0   ? "xor"
              : i % 3 == 1 ? "add"
                           : "mul") +
             " %" + std::to_string(r - 1) + ", %" +
             std::to_string(i % 2) + "\n";
    }
    t += "  ret %26\n}\n";
    return t;
}

void
kmodule(Bench &b)
{
    const unsigned modules = 4;
    const unsigned calls = 24;
    const uint64_t n = 40000;
    double nullUs[2] = {0, 0};
    for (int c = 0; c < 2; c++) {
        const char *config = kConfigs[c].name;
        auto sys = b.boot(machineConfig(kConfigs[c].vg, b.seed));
        // The Table 2 null-syscall row on the machine that hosts the
        // modules: the paper reference for this workload.
        b.run(*sys, "null_syscall", [&](kern::UserApi &api) {
            nullUs[c] = apps::latNullSyscall(api, 1000);
            return 0;
        });
        sim::SplitMix64 rng(b.seed);
        for (unsigned m = 0; m < modules; m++) {
            std::string name = "pb" + std::to_string(m);
            std::string text = moduleText(name, rng.next());
            std::string err;
            bool ok = false;
            b.timed("compiler.load_module", [&] {
                ok = sys->kernel().loadModule(name, text, &err);
            });
            b.check(ok, std::string("load ") + config + " " + name +
                            ": " + err);
            if (!ok)
                continue;
            for (unsigned i = 0; i < calls; i++) {
                uint64_t a = rng.next() & 0xffff, c0 = rng.next() & 0xff;
                cc::ExecResult r;
                b.timed("compiler.call_module", [&] {
                    r = sys->kernel().callModuleFunction(name, "work",
                                                         {n, a, c0});
                });
                uint64_t want = a * (n * (n - 1) / 2) + c0 * n;
                b.check(r.ok && r.value == want,
                        std::string("call ") + config + " " + name);
                b.digest.u64(r.value);
                b.digest.u64(r.instsExecuted);
            }
        }
        const sim::StatSet &st = sys->ctx().stats();
        b.check(st.get("mverify.findings") == 0 &&
                    st.get("iflow.findings") == 0,
                std::string("verifier findings on ") + config);
        b.retire(sys);
    }
    b.paperRow("null_syscall", nullUs[1] / nullUs[0], 3.90,
               nullUs[1] >= nullUs[0]);
}

// --- repetitions and reporting ---------------------------------------

const std::map<std::string, void (*)(Bench &)> kWorkloads = {
    {"micro", micro},
    {"serve", serve},
    {"fleet", fleetWorkload},
    {"kmodule", kmodule},
};

double
tvSec(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
}

Rep
runOnce(void (*workload)(Bench &), uint64_t seed, bool traced,
        perfbench::Tracer &tracer, const std::string &name)
{
    tracer.enabled = traced;
    Bench b(seed, tracer);
    b.rep.traced = traced;
    rusage r0{}, r1{};
    getrusage(RUSAGE_SELF, &r0);
    uint64_t root = traced ? tracer.open("workload." + name, 0) : 0;
    double t0 = perfbench::hostNow();
    workload(b);
    b.rep.hostS = perfbench::hostNow() - t0;
    if (root)
        tracer.close(root);
    getrusage(RUSAGE_SELF, &r1);
    b.rep.sysS = tvSec(r1.ru_stime) - tvSec(r0.ru_stime);
    b.rep.userS = tvSec(r1.ru_utime) - tvSec(r0.ru_utime);
    b.rep.volCtxSwitches = uint64_t(r1.ru_nvcsw - r0.ru_nvcsw);
    b.rep.setupS = b.rep.layerS["kernel.system_ctor"] +
                   b.rep.layerS["kernel.boot"] +
                   b.rep.layerS["fleet.provision"];
    b.rep.digest = b.digest.value();
    tracer.enabled = false;
    b.rep.freshFillS = perfbench::freshFillSeconds();
    b.rep.handoffS = perfbench::handoffSeconds();
    return std::move(b.rep);
}

/** Accumulates "name": {"value": v, "unit": u} pairs. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        _out += std::string(_out.empty() ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
                "\"}";
        std::printf("  %-48s %16.6g %s\n", name.c_str(), value, unit);
    }
    const std::string &json() const { return _out; }

  private:
    std::string _out;
};

double
medianOf(const std::vector<Rep> &reps,
         const std::function<double(const Rep &)> &fn)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(fn(r));
    return perfbench::median(v);
}

double
statOf(const Rep &r, const std::string &k)
{
    auto it = r.stats.find(k);
    return it == r.stats.end() ? 0.0 : double(it->second);
}

/** Simulated retired instructions: kernel, user and VIR module code. */
double
simInsts(const Rep &r)
{
    return statOf(r, "kernel.insts") + statOf(r, "user.insts") +
           statOf(r, "exec.insts");
}

double
layerOf(const Rep &r, const std::string &k)
{
    auto it = r.layerS.find(k);
    return it == r.layerS.end() ? 0.0 : it->second;
}

/** Host seconds spent running simulated code: processes (client calls
 *  included), fleet epochs and module calls, as wall time or as CPU
 *  time of the process. Set-up, teardown, file planting and module
 *  translation are not simulation. */
double
simulatingS(const Rep &r, bool cpu = false)
{
    const std::map<std::string, double> &t = cpu ? r.layerCpuS : r.layerS;
    double sum = 0;
    for (const char *k : {"kernel.run", "fleet.run", "compiler.call_module"})
        if (auto it = t.find(k); it != t.end())
            sum += it->second;
    return sum;
}

/** Reference time of the host the end-to-end times are scaled to. */
const double kNominalReferenceS = 0.070;

/** Factor that scales this run's host times to a host that runs the
 *  reference (fresh-memory fill plus thread handoffs) in
 *  kNominalReferenceS. On a shared VM the cost of both drifts by a
 *  quarter over minutes, and set-up, teardown and the run phase follow
 *  it; the reference, timed after every repetition, follows it too. */
double
hostSpeedScale(const std::vector<Rep> &reps)
{
    return kNominalReferenceS / medianOf(reps, [](const Rep &r) {
               return r.freshFillS + r.handoffS;
           });
}

void
endToEnd(Metrics &m, const std::vector<Rep> &reps, double peakRssMb)
{
    double scale = hostSpeedScale(reps);
    m.add("host_s",
          scale * medianOf(reps, [](const Rep &r) { return r.hostS; }), "s");
    m.add("setup_s",
          scale * medianOf(reps, [](const Rep &r) { return r.setupS; }),
          "s");
    m.add("host_s_per_ginst", scale * medianOf(reps, [](const Rep &r) {
              return simulatingS(r, true) / (simInsts(r) / 1e9);
          }),
          "s");
    m.add("peak_rss_mb", peakRssMb, "MB");
    m.add("paper_err_pct", perfbench::paperErrPct(reps[0].paperRows),
          "%");
}

void
perLayer(Metrics &m, const std::vector<Rep> &reps,
         const std::vector<perfbench::Span> &spans)
{
    std::vector<Rep> traced, plain;
    for (const Rep &r : reps)
        (r.traced ? traced : plain).push_back(r);
    const Rep &first = reps[0];
    auto layer = [&](const std::string &k) {
        return medianOf(traced, [&](const Rep &r) { return layerOf(r, k); });
    };
    auto count = [&](const std::string &k, const char *unit = "count") {
        m.add(k, statOf(first, k), unit);
    };

    // Machine lifecycle.
    m.add("kernel.system_ctor_s", layer("kernel.system_ctor"), "s");
    m.add("kernel.boot_s", layer("kernel.boot"), "s");
    m.add("kernel.system_dtor_s", layer("kernel.system_dtor"), "s");
    m.add("fs.plant_s", layer("fs.plant"), "s");
    m.add("process.sys_s",
          medianOf(traced, [](const Rep &r) { return r.sysS; }), "s");
    m.add("process.user_s",
          medianOf(traced, [](const Rep &r) { return r.userS; }), "s");
    m.add("host.fresh_fill_ms", medianOf(reps, [](const Rep &r) {
              return r.freshFillS * 1e3;
          }),
          "ms");
    m.add("host.handoff_ms",
          medianOf(reps, [](const Rep &r) { return r.handoffS * 1e3; }),
          "ms");

    // Scheduler. The per-event ratios divide by all host time spent
    // running simulated processes, inside Fleet::run too, because the
    // counts are summed over every machine.
    m.add("kernel.run_s", layer("kernel.run"), "s");
    double run = layer("kernel.run") + layer("fleet.run");
    m.add("process.vol_ctx_switches", medianOf(traced, [](const Rep &r) {
              return double(r.volCtxSwitches);
          }),
          "count");
    count("sva.context_switches");
    double cs = statOf(first, "sva.context_switches");
    double sc = statOf(first, "sva.syscalls");
    m.add("kernel.host_ns_per_ctx_switch", cs ? run * 1e9 / cs : 0, "ns");
    m.add("kernel.host_ns_per_syscall", sc ? run * 1e9 / sc : 0, "ns");

    // SVA.
    for (const char *k :
         {"sva.syscalls", "sva.ic_saves", "sva.mmu_updates",
          "sva.remote_invlpgs", "sva.ghost_pages_swapped_out",
          "sva.ghost_pages_swapped_in", "sva.ghost_swap_batches"})
        count(k);

    // Crypto, devices, fs.
    count("crypto.aes_bytes", "bytes");
    count("crypto.sha_bytes", "bytes");
    for (const char *k : {"nic.tx_packets", "disk.requests",
                          "kernel.device_irqs", "kernel.irqs_coalesced"})
        count(k);
    double hits = statOf(first, "bcache.hits");
    double lookups = hits + statOf(first, "bcache.misses");
    m.add("bcache.hit_ratio", lookups ? hits / lookups : 0, "ratio");
    m.add("bcache.lookups", lookups, "count");

    // Client-call pools, per (config, size), over every repetition.
    std::map<std::string, std::vector<double>> pools;
    for (const Rep &r : reps)
        for (const auto &[k, v] : r.pools)
            pools[k].insert(pools[k].end(), v.begin(), v.end());
    for (const auto &[key, pool] : pools) {
        perfbench::PoolSummary s = perfbench::summarize(pool);
        std::printf("  pool %-44s p50 %10.6fs p%-4g %10.6fs n %zu\n",
                    key.c_str(), s.p50, s.hiPct, s.hi, s.n);
    }
    for (const auto &[layerName, scale, unit] :
         {std::tuple{"apps.http_request_host_us", 1e6, "us"},
          std::tuple{"apps.ssh_session_host_ms", 1e3, "ms"}})
        for (const char *config : {"native", "vg"})
            for (const char *size : {"1KB", "1MB"}) {
                std::string key =
                    std::string(layerName) + "." + config + "." + size;
                perfbench::PoolSummary s = perfbench::summarize(pools[key]);
                m.add(key + ".p50", s.p50 * scale, unit);
                m.add(key + ".p_hi", s.hi * scale, unit);
                m.add(key + ".n", double(s.n), "count");
            }

    // Swap.
    for (const char *k : {"swap.write_batches", "swap.read_clusters",
                          "swap.pages_stored", "swap.pages_loaded"})
        count(k);

    // Fleet.
    double fleetRun = layer("fleet.run");
    m.add("fleet.provision_s", layer("fleet.provision"), "s");
    m.add("fleet.run_s", fleetRun, "s");
    m.add("fleet.host_us_per_request",
          first.fleetRequests ? fleetRun * 1e6 / double(first.fleetRequests)
                              : 0,
          "us");
    m.add("fleet.requests", double(first.fleetRequests), "count");
    count("fleet.epochs");

    // Compiler and VIR execution.
    double execInsts = statOf(first, "exec.insts");
    m.add("compiler.load_module_s", layer("compiler.load_module"), "s");
    m.add("compiler.call_host_ns_per_inst",
          execInsts ? layer("compiler.call_module") * 1e9 / execInsts : 0,
          "ns");
    count("mverify.insts");
    m.add("mverify.wall_ms", statOf(first, "mverify.wall_ns") / 1e6, "ms");
    count("iflow.insts");
    m.add("iflow.wall_ms", statOf(first, "iflow.wall_ns") / 1e6, "ms");
    for (const char *k : {"translator.insts_emitted",
                          "translator.cache_hits", "trace.formed",
                          "trace.side_exits", "trace.retired_insts"})
        count(k);
    m.add("trace.coverage",
          execInsts ? statOf(first, "trace.retired_insts") / execInsts : 0,
          "ratio");
    count("exec.insts");
    m.add("sim.retired_insts", simInsts(first), "count");

    // Spans: self time per boundary, time no span covers, and the cost
    // of tracing against the untraced repetitions.
    std::map<std::string, double> self = perfbench::selfTimeByName(spans);
    double nTraced = double(traced.size());
    for (const char *k :
         {"kernel.system_ctor", "kernel.boot", "kernel.system_dtor",
          "fs.plant", "kernel.run", "apps.http_request_host_us",
          "apps.ssh_session_host_ms", "fleet.provision", "fleet.run",
          "compiler.load_module", "compiler.call_module"})
        m.add(std::string("span.") + k + ".self_s", self[k] / nTraced,
              "s");
    double uncovered = 0;
    for (const auto &[k, v] : self)
        if (k.rfind("workload.", 0) == 0)
            uncovered += v;
    m.add("span.uncovered_s", uncovered / nTraced, "s");
    m.add("span.count", double(spans.size()) / nTraced, "count");
    double hostTraced =
        medianOf(traced, [](const Rep &r) { return r.hostS; });
    double hostPlain = medianOf(plain, [](const Rep &r) { return r.hostS; });
    m.add("span.overhead_pct", (hostTraced / hostPlain - 1) * 100, "%");
}

void
writeSpans(const std::string &path, const std::vector<perfbench::Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::perror(path.c_str());
        return;
    }
    for (const perfbench::Span &s : spans)
        std::fprintf(f,
                     "{\"id\": %llu, \"parent\": %llu, \"group\": %llu, "
                     "\"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f}\n",
                     (unsigned long long)s.id, (unsigned long long)s.parent,
                     (unsigned long long)s.group, s.name.c_str(), s.start,
                     s.end);
    std::fclose(f);
}

/** Restrict this thread, and so every thread it starts, to the CPU it
 *  is running on now. */
void
pinToOneCpu()
{
    int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        std::perror("sched_setaffinity");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload micro|serve|fleet|kmodule "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansOut;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    if (argc % 2 == 0)
        return usage();
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], val = argv[i + 1];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(val.c_str(), nullptr);
        else if (flag == "--trace")
            trace = val == "1";
        else if (flag == "--spans-out")
            spansOut = val;
        else
            return usage();
    }
    auto wl = kWorkloads.find(workload);
    if (wl == kWorkloads.end() || !(seconds > 0))
        return usage();

    // Simulated processes hand one thread of control between host
    // threads. Left to the host scheduler, each handoff may wake a
    // thread on another CPU, and the wake-up latency then depends on
    // what else the host runs; on one CPU it is a plain switch.
    pinToOneCpu();

    // Repeat until the budget is spent, never starting a repetition
    // that would overrun it once the minimum is met. Traced runs
    // alternate traced and untraced repetitions.
    const size_t minReps = trace ? 4 : 3;
    perfbench::Tracer tracer;
    tracer.bindMainThread();
    std::vector<Rep> reps;
    double start = perfbench::hostNow(), longest = 0;
    while (reps.size() < minReps ||
           perfbench::hostNow() - start + longest <= seconds) {
        reps.push_back(
            runOnce(wl->second, seed, trace && reps.size() % 2 == 0,
                    tracer, workload));
        longest = std::max(longest, reps.back().hostS);
    }

    uint64_t attempted = 0, failed = 0;
    for (const Rep &r : reps) {
        attempted += r.attempted;
        failed += r.failed;
    }
    // Simulated outputs must repeat exactly for one seed.
    std::set<uint64_t> digests;
    for (const Rep &r : reps)
        digests.insert(r.digest);
    attempted++;
    if (digests.size() != 1) {
        failed++;
        std::printf("FAILED: sim_digest differs across %zu repetitions\n",
                    reps.size());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    double peakRssMb = double(ru.ru_maxrss) / 1024.0;

    std::printf("workload %s seed %llu: %zu repetitions\n", workload.c_str(),
                (unsigned long long)seed, reps.size());
    for (const Rep &r : reps)
        std::printf("  repetition%s host_s %.4f setup_s %.4f sys_s %.4f "
                    "user_s %.4f sim_s %.4f sim_cpu_s %.4f fresh_fill_s "
                    "%.4f handoff_s %.4f\n",
                    r.traced ? " (traced)" : "", r.hostS, r.setupS, r.sysS,
                    r.userS, simulatingS(r), simulatingS(r, true),
                    r.freshFillS, r.handoffS);
    std::printf("host speed scale %.4f (unscaled times above)\n",
                hostSpeedScale(reps));
    std::printf("sim_digest %016llx\n", (unsigned long long)reps[0].digest);
    for (const PaperRow &r : reps[0].paperRows)
        std::printf("  paper row %-22s sim %8.4f paper %6.2f err %6.2f%%\n",
                    r.name.c_str(), r.sim, r.paper,
                    std::fabs(r.sim / r.paper - 1) * 100);

    Metrics m;
    if (trace) {
        perLayer(m, reps, tracer.spans());
        if (!spansOut.empty())
            writeSpans(spansOut, tracer.spans());
    } else {
        endToEnd(m, reps, peakRssMb);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed,
                m.json().c_str());
    return 0;
}
