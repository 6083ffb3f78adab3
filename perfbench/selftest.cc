/**
 * @file
 * Unit tests for the benchmark's own arithmetic (measure.hh), on
 * hand-computed inputs. Run with `python3 perfbench/run.py --selftest`;
 * exits non-zero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "measure.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expectNear(double got, double want, const char *what)
{
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
        std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
        failures++;
    }
}

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; i--) // descending: summarize must sort
        v.push_back(double(i));
    return v;
}

void
percentileRule()
{
    // 100 samples: p99 leaves 1 above it, p90 (the 90th value) 10.
    PoolSummary s = summarize(oneTo(100));
    expectNear(s.p50, 50, "n=100 p50");
    expectNear(s.hiPct, 90, "n=100 tail percentile");
    expectNear(s.hi, 90, "n=100 tail value");
    expectNear(double(s.n), 100, "n=100 count");

    s = summarize(oneTo(1000));
    expectNear(s.hiPct, 99, "n=1000 tail percentile");
    expectNear(s.hi, 990, "n=1000 tail value");

    s = summarize(oneTo(10000));
    expectNear(s.hiPct, 99.9, "n=10000 tail percentile");
    expectNear(s.hi, 9990, "n=10000 tail value");

    // 20 samples: the median (10th value) has exactly 10 above it.
    s = summarize(oneTo(20));
    expectNear(s.hiPct, 50, "n=20 tail percentile");
    expectNear(s.hi, 10, "n=20 tail value");

    // 19 samples: no ladder percentile has 10 above it.
    s = summarize(oneTo(19));
    expectNear(s.p50, 10, "n=19 p50");
    expectNear(s.hiPct, 0, "n=19 tail percentile");
    expectNear(s.hi, 0, "n=19 tail value");

    s = summarize({});
    expectNear(double(s.n), 0, "empty pool");

    expectNear(median({3, 1, 2}), 2, "odd median");
    expectNear(median({4, 1, 3, 2}), 2.5, "even median");
}

void
spanSelfTime()
{
    // root [0,10] has children a [1,4], b [3,6] (overlapping a) and
    // c [8,12] (running past root); a has child g [2,3].
    // root: 10 - |[1,6] u [8,10]| = 3; a: 3 - 1 = 2; b: 3; c: 4; g: 1.
    std::vector<Span> spans = {
        {1, 0, 0, "root", 0, 10}, {2, 1, 0, "a", 1, 4},
        {3, 1, 0, "b", 3, 6},     {4, 1, 0, "c", 8, 12},
        {5, 2, 7, "g", 2, 3},
    };
    std::vector<double> self = selfTimes(spans);
    const double want[] = {3, 2, 3, 4, 1};
    for (size_t i = 0; i < spans.size(); i++)
        expectNear(self[i], want[i], spans[i].name.c_str());

    spans.push_back({6, 0, 0, "a", 20, 21});
    std::map<std::string, double> by = selfTimeByName(spans);
    expectNear(by["a"], 3, "self time summed by name");
}

void
tracerParents()
{
    // A span opened on another thread with nothing open there nests
    // under the recording thread's innermost open span.
    Tracer t;
    t.bindMainThread();
    uint64_t run = t.open("run", 0);
    uint64_t inner = t.open("inner", 0);
    t.close(inner);
    uint64_t req = 0, nested = 0;
    std::thread([&] {
        req = t.open("request", 9);
        nested = t.open("nested", 9);
        t.close(nested);
        t.close(req);
    }).join();
    t.close(run);
    const std::vector<Span> &s = t.spans();
    expectNear(double(s[inner - 1].parent), double(run), "inner parent");
    expectNear(double(s[req - 1].parent), double(run), "request parent");
    expectNear(double(s[nested - 1].parent), double(req), "nested parent");
    expectNear(double(s[req - 1].group), 9, "request group");
    if (!(s[run - 1].end >= s[req - 1].end)) {
        std::printf("FAIL run span closed before its request\n");
        failures++;
    }
}

void
paperError()
{
    // |3.91/3.90 - 1| = 0.25641%, |0.9/1 - 1| = 10%,
    // |0.825/0.55 - 1| = 50%; mean 20.08547%.
    std::vector<PaperRow> rows = {
        {"null", 3.91, 3.90}, {"thttpd", 0.9, 1.0}, {"sshd", 0.825, 0.55}};
    expectNear(paperErrPct(rows), (100.0 / 390 + 10 + 50) / 3,
               "paper error");
    expectNear(paperErrPct({}), 0, "paper error without rows");
}

void
digestStability()
{
    // FNV-1a 64 of "a" and of "foobar" (published test vectors).
    Digest a;
    a.bytes("a", 1);
    expectNear(double(a.value() == 0xaf63dc4c8601ec8cull), 1, "fnv 'a'");
    Digest f;
    f.bytes("foobar", 6);
    expectNear(double(f.value() == 0x85944171f73967e8ull), 1,
               "fnv 'foobar'");

    auto feed = [](Digest &d, double x, uint64_t y) {
        d.str("kernel.insts");
        d.u64(y);
        d.f64(x);
    };
    Digest d1, d2, d3, d4;
    feed(d1, 3.91, 7);
    feed(d2, 3.91, 7);
    feed(d3, std::nextafter(3.91, 4.0), 7);
    d4.f64(3.91);
    d4.u64(7);
    d4.str("kernel.insts");
    expectNear(double(d1.value() == d2.value()), 1, "digest repeats");
    expectNear(double(d1.value() != d3.value()), 1,
               "digest sees one ulp");
    expectNear(double(d1.value() != d4.value()), 1, "digest sees order");
}

} // namespace

int
main()
{
    percentileRule();
    spanSelfTime();
    tracerParents();
    paperError();
    digestStability();
    if (failures) {
        std::printf("%d expectation(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench selftest: all expectations passed\n");
    return 0;
}
