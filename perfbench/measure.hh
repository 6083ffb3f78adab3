/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator types so the
 * self-test can check it on hand-computed inputs:
 *
 *   - timing pools summarised as a median plus the highest ladder
 *     percentile that still has at least ten samples beyond it;
 *   - span recording and per-span self time (duration minus the union
 *     of its children's intervals);
 *   - the fidelity error against the paper's reported ratios;
 *   - an order-sensitive digest over simulated outputs;
 *   - the host-speed reference (fresh-memory fill, thread handoffs)
 *     that end-to-end host times are scaled by.
 */

#ifndef VG_PERFBENCH_MEASURE_HH
#define VG_PERFBENCH_MEASURE_HH

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench
{

/** 0-based nearest-rank index of percentile @p p (0-100] in a pool of
 *  @p n: ceil(p/100 * n) - 1, with the product's rounding error
 *  removed so that 99.9% of 10000 is rank 9990, not 9991. */
inline size_t
rankIndex(double p, size_t n)
{
    double rank = std::ceil(p * double(n) / 100.0 - 1e-9);
    return rank < 1 ? 0 : std::min(size_t(rank) - 1, n - 1);
}

/** Percentile of an ascending-sorted pool by nearest rank. */
inline double
nearestRank(const std::vector<double> &sorted, double p)
{
    return sorted.empty() ? 0 : sorted[rankIndex(p, sorted.size())];
}

/** Median of an unsorted sample (mean of the middle pair when even). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** A timing pool's report: median, tail percentile and sample count. */
struct PoolSummary
{
    double p50 = 0;
    /** The highest percentile of {99.9, 99, 90, 75, 50} whose
     *  nearest-rank index leaves at least ten samples above it; 0
     *  when even the median does not (fewer than 20 samples). */
    double hiPct = 0;
    double hi = 0;
    size_t n = 0;
};

inline PoolSummary
summarize(std::vector<double> v)
{
    PoolSummary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.p50 = nearestRank(v, 50);
    for (double p : {99.9, 99.0, 90.0, 75.0, 50.0}) {
        size_t idx = rankIndex(p, s.n);
        if (s.n - 1 - idx >= 10) {
            s.hiPct = p;
            s.hi = v[idx];
            break;
        }
    }
    return s;
}

/** One row with a paper reference: the simulated VG/native ratio and
 *  the ratio the paper reports for the same measurement. */
struct PaperRow
{
    std::string name;
    double sim = 0;
    double paper = 0;
};

/** Mean of |sim / paper - 1| x 100 over @p rows (0 when empty). */
inline double
paperErrPct(const std::vector<PaperRow> &rows)
{
    if (rows.empty())
        return 0;
    double sum = 0;
    for (const PaperRow &r : rows)
        sum += std::fabs(r.sim / r.paper - 1.0) * 100.0;
    return sum / double(rows.size());
}

/** FNV-1a over everything fed to it, in order. Doubles are hashed by
 *  their bit pattern, so any change in a simulated value shows. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; i++) {
            _h ^= b[i];
            _h *= 0x100000001b3ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    uint64_t value() const { return _h; }

  private:
    uint64_t _h = 0xcbf29ce484222325ull;
};

/** Host time in seconds since an arbitrary fixed origin. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds used so far by every thread of this process. */
inline double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

/** Host seconds to map 64 MiB of fresh anonymous memory, write every
 *  byte and unmap it: the page-fault and zero-fill work that dominates
 *  building a simulated machine. */
inline double
freshFillSeconds()
{
    const size_t bytes = size_t(64) << 20;
    double t0 = hostNow();
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        std::perror("mmap");
        std::exit(1);
    }
    std::memset(p, 1, bytes);
    munmap(p, bytes);
    return hostNow() - t0;
}

/** Host seconds for two threads to pass a baton back and forth 5,000
 *  times under a mutex and condition variable, the way simulated
 *  processes hand over the thread of control. */
inline double
handoffSeconds()
{
    const int rounds = 5000;
    std::mutex mu;
    std::condition_variable cv;
    bool peerTurn = false;
    double t0 = hostNow();
    std::thread peer([&] {
        for (int i = 0; i < rounds; i++) {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return peerTurn; });
            peerTurn = false;
            cv.notify_all();
        }
    });
    for (int i = 0; i < rounds; i++) {
        std::unique_lock<std::mutex> lk(mu);
        peerTurn = true;
        cv.notify_all();
        cv.wait(lk, [&] { return !peerTurn; });
    }
    peer.join();
    return hostNow() - t0;
}

/** One recorded span. Spans of one request share @p group. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span
    uint64_t group = 0;
    std::string name;
    double start = 0;
    double end = 0;
};

/**
 * In-memory span recorder. Simulated processes run on their own host
 * threads, one at a time; a span opened on a thread with no open span
 * of its own takes the innermost open span of the thread that started
 * recording as its parent, so client requests nest under the run that
 * drives them.
 */
class Tracer
{
  public:
    bool enabled = false;

    uint64_t
    open(const std::string &name, uint64_t group)
    {
        std::vector<uint64_t> &stack = stackHere();
        Span s;
        s.id = _spans.size() + 1;
        s.parent = !stack.empty()      ? stack.back()
                   : !_main.empty() ? _main.back()
                                    : 0;
        s.group = group;
        s.name = name;
        s.start = hostNow();
        _spans.push_back(std::move(s));
        stack.push_back(_spans.back().id);
        return _spans.back().id;
    }

    void
    close(uint64_t id)
    {
        _spans[id - 1].end = hostNow();
        std::vector<uint64_t> &stack = stackHere();
        auto it = std::find(stack.begin(), stack.end(), id);
        if (it != stack.end())
            stack.erase(it);
    }

    /** Record the calling thread as the one whose open spans adopt
     *  spans from threads that have none open. */
    void bindMainThread() { _mainId = std::this_thread::get_id(); }

    std::vector<Span> &spans() { return _spans; }

  private:
    std::vector<uint64_t> &
    stackHere()
    {
        thread_local std::vector<uint64_t> local;
        return std::this_thread::get_id() == _mainId ? _main : local;
    }

    std::vector<Span> _spans;
    std::vector<uint64_t> _main;
    std::thread::id _mainId = std::this_thread::get_id();
};

/** Self time of every span: its duration minus the length of the union
 *  of its direct children's intervals (clipped to the span). Indexed
 *  like @p spans. */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<uint64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span &s : spans)
        if (s.parent)
            kids[s.parent].emplace_back(s.start, s.end);
    std::vector<double> out;
    out.reserve(spans.size());
    for (const Span &s : spans) {
        double covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            std::vector<std::pair<double, double>> iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = s.start, hi = s.start;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (a > hi) {
                    covered += hi - lo;
                    lo = a;
                }
                hi = std::max(hi, b);
            }
            covered += hi - lo;
        }
        out.push_back(s.end - s.start - covered);
    }
    return out;
}

/** Sum of self time per span name. */
inline std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); i++)
        out[spans[i].name] += self[i];
    return out;
}

} // namespace perfbench

#endif // VG_PERFBENCH_MEASURE_HH
