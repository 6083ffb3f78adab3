/**
 * @file
 * Ring-stack golden sweep: a mixed thttpd + sshd + postmark corpus
 * driven through the interrupt-driven descriptor-ring device stack at
 * 1-4 vCPUs must deliver exactly the pinned payload bytes and do
 * exactly the pinned fs/nic/disk work. The constants were captured
 * while the synchronous request-response device model still existed
 * and the two stacks were proven functionally identical on this
 * corpus; they now stand in for that reference model.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "apps/postmark.hh"
#include "apps/ssh_common.hh"
#include "apps/thttpd.hh"
#include "kernel/system.hh"

using namespace vg;
using namespace vg::kern;
using namespace vg::apps;

namespace
{

/** FNV-1a over a byte stream, for payload digests. */
struct Fnv
{
    uint64_t h = 1469598103934665603ull;
    void
    feed(const uint8_t *p, size_t n)
    {
        for (size_t i = 0; i < n; i++) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    }
};

/** Everything the corpus must reproduce exactly. */
struct WorkloadResult
{
    uint64_t httpBytes = 0;
    uint64_t httpDigest = 0;
    uint64_t sshBytes = 0;
    uint64_t sshDigest = 0;
    uint64_t pmCreated = 0;
    uint64_t pmDeleted = 0;
    uint64_t pmBytesRead = 0;
    uint64_t pmBytesWritten = 0;
    std::map<std::string, uint64_t> stats;
};

/** Stats that count *work done*, not how it was charged or delivered.
 *  Deliberately excludes the interrupt-mechanics counters
 *  (kernel.device_irqs, kernel.irqs_coalesced, kernel.softirq_wakes,
 *  kernel.zero_copy_sends) and anything timing-dependent. */
constexpr const char *kInvariantStats[] = {
    "nic.tx_packets",   "nic.tx_bytes",     "nic.rx_packets",
    "disk.requests",    "disk.blocks",      "bcache.writebacks",
    "fs.creates",       "fs.unlinks",       "fs.bytes_read",
    "fs.bytes_written", "net.bytes_sent",   "kernel.forks",
    "kernel.execs",     "nic.ring_blocked_dma",
    "disk.ring_blocked_dma",
};

/** The pinned result. It is the same at every vCPU count: scheduling
 *  changes when work happens, never what work happens. */
const WorkloadResult kGolden = [] {
    WorkloadResult g;
    g.httpBytes = 196608;
    g.httpDigest = 0x884f50e43c000000ull;
    g.sshBytes = 32768;
    g.sshDigest = 0xf525714f37878383ull;
    g.pmCreated = 48;
    g.pmDeleted = 48;
    g.pmBytesRead = 97073;
    g.pmBytesWritten = 119776;
    const uint64_t stats[] = {
        218,    244102, 218, 60, 60, 30, 54, 48,
        326866, 177592, 230150, 7, 2, 0, 0,
    };
    static_assert(std::size(stats) == std::size(kInvariantStats));
    for (size_t i = 0; i < std::size(stats); i++)
        g.stats[kInvariantStats[i]] = stats[i];
    return g;
}();

SystemConfig
sweepConfig(unsigned vcpus)
{
    SystemConfig cfg;
    cfg.vg = sim::VgConfig::full();
    cfg.vg.vcpus = vcpus;
    cfg.memFrames = 8192;
    cfg.diskBlocks = 8192;
    cfg.rsaBits = 384;
    return cfg;
}

/** One HTTP GET with the body digested (apacheBench discards it). */
void
httpFetch(UserApi &api, uint16_t port, WorkloadResult &out)
{
    int fd = api.connect(port);
    ASSERT_GE(fd, 0);
    const char *req = "GET /file.bin HTTP/1.0\r\n\r\n";
    api.sendHost(fd, req, std::strlen(req));
    std::vector<uint8_t> buf(16 * 1024);
    std::string head;
    bool headers_done = false;
    Fnv fnv;
    while (true) {
        int64_t n = api.recvHost(fd, buf.data(), buf.size());
        if (n <= 0)
            break;
        size_t body_off = 0;
        if (!headers_done) {
            head.append(reinterpret_cast<char *>(buf.data()),
                        size_t(n));
            size_t hdr_end = head.find("\r\n\r\n");
            if (hdr_end == std::string::npos)
                continue;
            headers_done = true;
            // Bytes of this chunk that belong to the body.
            size_t consumed = head.size() - size_t(n);
            body_off = hdr_end + 4 > consumed ? hdr_end + 4 - consumed
                                              : 0;
        }
        fnv.feed(buf.data() + body_off, size_t(n) - body_off);
        out.httpBytes += size_t(n) - body_off;
    }
    api.close(fd);
    out.httpDigest = fnv.h;
}

WorkloadResult
runCorpus(unsigned vcpus)
{
    WorkloadResult out;
    System sys(sweepConfig(vcpus));
    sys.boot();

    crypto::AesKey app_key{};
    for (int i = 0; i < 16; i++)
        app_key[size_t(i)] = uint8_t(i);
    sva::AppBinary bin =
        sys.vm().packageApp("openssh", "ssh-code", app_key);

    // Content corpus: an HTTP file and an ssh payload with
    // non-uniform bytes so digests catch reordering or truncation.
    Ino ino = 0;
    sys.kernel().fs().create("/file.bin", ino);
    std::vector<uint8_t> web(24 * 1024);
    for (size_t i = 0; i < web.size(); i++)
        web[i] = uint8_t(i * 7 + 3);
    sys.kernel().fs().write(ino, 0, web.data(), web.size());

    sys.kernel().fs().create("/payload", ino);
    std::vector<uint8_t> pay(32 * 1024);
    for (size_t i = 0; i < pay.size(); i++)
        pay[i] = uint8_t(i * 13 + 5);
    sys.kernel().fs().write(ino, 0, pay.data(), pay.size());

    sys.runProcess("init", [&](UserApi &api) {
        int status = -1;

        // ssh host keys first (the servers need them).
        uint64_t kg = api.fork([&](UserApi &capi) {
            return capi.execve(&bin, [](UserApi &napi) {
                return sshKeygen(napi);
            });
        });
        api.waitpid(kg, status);
        EXPECT_EQ(status, 0);

        // Servers: one thttpd (8 requests) and one sshd session.
        uint64_t web_srv = api.fork([](UserApi &capi) {
            ThttpdConfig cfg;
            cfg.port = 80;
            cfg.maxRequests = 8;
            return thttpd(capi, cfg);
        });
        uint64_t ssh_srv = api.fork([](UserApi &capi) {
            SshdConfig cfg;
            cfg.maxConnections = 1;
            return sshd(capi, cfg);
        });
        for (int i = 0; i < 4; i++)
            api.yield();

        // Clients + postmark run concurrently so the stacks are
        // exercised under contention, not one flow at a time.
        uint64_t http_cli = api.fork([&](UserApi &capi) {
            for (int r = 0; r < 8; r++) {
                WorkloadResult one;
                httpFetch(capi, 80, one);
                out.httpBytes += one.httpBytes;
                out.httpDigest ^= one.httpDigest + 0x9e3779b9 +
                                  (out.httpDigest << 6);
            }
            return 0;
        });
        uint64_t ssh_cli = api.fork([&](UserApi &capi) {
            return capi.execve(&bin, [&](UserApi &napi) {
                SshResult r = sshFetch(napi, "/payload", false,
                                       /*keep_data=*/true);
                EXPECT_TRUE(r.ok);
                out.sshBytes = r.bytes;
                Fnv fnv;
                fnv.feed(r.data.data(), r.data.size());
                out.sshDigest = fnv.h;
                return r.ok ? 0 : 1;
            });
        });
        uint64_t pm = api.fork([&](UserApi &capi) {
            PostmarkConfig cfg;
            cfg.baseFiles = 20;
            cfg.transactions = 120;
            cfg.maxSize = 4000;
            PostmarkResult r = postmark(capi, cfg);
            out.pmCreated = r.filesCreated;
            out.pmDeleted = r.filesDeleted;
            out.pmBytesRead = r.bytesRead;
            out.pmBytesWritten = r.bytesWritten;
            return 0;
        });

        api.waitpid(http_cli, status);
        api.waitpid(ssh_cli, status);
        api.waitpid(pm, status);
        api.waitpid(web_srv, status);
        api.waitpid(ssh_srv, status);
        return 0;
    });

    for (const char *k : kInvariantStats)
        out.stats[k] = sys.ctx().stats().get(k);
    return out;
}

} // namespace

TEST(IoRing, IoRingEquivalenceSweep)
{
    for (unsigned vcpus = 1; vcpus <= 4; vcpus++) {
        SCOPED_TRACE("vcpus=" + std::to_string(vcpus));
        WorkloadResult ring = runCorpus(vcpus);

        // Payload bytes, byte-for-byte.
        EXPECT_EQ(ring.httpBytes, kGolden.httpBytes);
        EXPECT_EQ(ring.httpDigest, kGolden.httpDigest);
        EXPECT_EQ(ring.sshBytes, kGolden.sshBytes);
        EXPECT_EQ(ring.sshDigest, kGolden.sshDigest);

        // The postmark corpus did the pinned fs work.
        EXPECT_EQ(ring.pmCreated, kGolden.pmCreated);
        EXPECT_EQ(ring.pmDeleted, kGolden.pmDeleted);
        EXPECT_EQ(ring.pmBytesRead, kGolden.pmBytesRead);
        EXPECT_EQ(ring.pmBytesWritten, kGolden.pmBytesWritten);

        // Device / fs counters. The benign workload blocks no DMA
        // (both ring_blocked_dma counters are pinned at 0).
        for (const char *k : kInvariantStats) {
            SCOPED_TRACE(k);
            EXPECT_EQ(ring.stats[k], kGolden.stats.at(k));
        }
    }
}
