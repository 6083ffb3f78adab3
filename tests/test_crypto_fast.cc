/**
 * @file
 * The production crypto (AES and SHA-256 on both their portable and
 * hardware kernels, precomputed HMAC states, Montgomery modExp, cached
 * seal keys) must be *bit identical* to the reference oracle in
 * tests/oracle/crypto_ref.hh:
 * same ciphertexts, same digests, same MACs, same sealed blobs and
 * RSA bytes. These tests run both side by side on random inputs. The
 * machine-level ghost-page swap is pinned to constants captured while
 * a second machine running the reference ciphers matched it in
 * lockstep.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <optional>
#include <tuple>

#include "crypto/aes.hh"
#include "crypto/bignum.hh"
#include "crypto/drbg.hh"
#include "crypto/hmac.hh"
#include "crypto/rsa.hh"
#include "crypto/sealed.hh"
#include "crypto/sha256.hh"
#include "hw/iommu.hh"
#include "hw/mmu.hh"
#include "hw/phys_mem.hh"
#include "hw/tpm.hh"
#include "oracle/crypto_ref.hh"
#include "sva/vm.hh"

using namespace vg;
using namespace vg::crypto;
using namespace vg::oracle;

namespace
{

AesKey
randomKey(CtrDrbg &rng)
{
    AesKey k{};
    rng.generate(k.data(), k.size());
    return k;
}

} // namespace

class CryptoFastSweep : public ::testing::TestWithParam<int>
{
  protected:
    CtrDrbg
    rng() const
    {
        return CtrDrbg({uint8_t(GetParam()), 'c', 'f'});
    }
};

// --------------------------------------------------------------------
// AES and SHA-256 kernels. Each leg (portable, hardware) is reached
// through its detail:: entry point and checked against the oracle, so
// both are tested on every host that has the hardware extensions; the
// hardware leg skips, saying why, where CPUID lacks them.
// --------------------------------------------------------------------

enum class Leg
{
    Portable,
    Hardware,
};

class CryptoKernelSweep
    : public ::testing::TestWithParam<std::tuple<Leg, int>>
{
  protected:
    Leg leg() const { return std::get<0>(GetParam()); }

    CtrDrbg
    rng() const
    {
        return CtrDrbg({uint8_t(std::get<1>(GetParam())), 'c', 'k'});
    }

    const detail::AesKernel *
    aesKernel() const
    {
        return leg() == Leg::Portable ? &detail::portableAes()
                                      : detail::hardwareAes();
    }

    const detail::Sha256Kernel *
    shaKernel() const
    {
        return leg() == Leg::Portable ? &detail::portableSha256()
                                      : detail::hardwareSha256();
    }
};

TEST_P(CryptoKernelSweep, AesPrimitives)
{
    const detail::AesKernel *kernel = aesKernel();
    if (!kernel)
        GTEST_SKIP() << "CPUID lacks aes: hardware AES leg not run";
    RecordProperty("kernel", kernel->name);
    CtrDrbg r = rng();

    // Random keys: single blocks, and CTR over random lengths on
    // buffers at every alignment.
    std::vector<uint8_t> buf(600 + 16);
    for (int round = 0; round < 20; round++) {
        AesKey key = randomKey(r);
        Aes128 prod(key, *kernel);
        RefAes128 ref(key);

        uint8_t blkP[16], blkR[16];
        r.generate(blkP, 16);
        std::memcpy(blkR, blkP, 16);
        prod.encryptBlock(blkP);
        ref.encryptBlock(blkR);
        ASSERT_EQ(std::memcmp(blkP, blkR, 16), 0) << "round " << round;

        AesBlock nonce{};
        r.generate(nonce.data(), nonce.size());
        size_t len = size_t(r.nextBounded(600));
        size_t shift = size_t(round) % 16;
        std::vector<uint8_t> plain = r.generate(len);
        std::memcpy(buf.data() + shift, plain.data(), len);
        prod.ctrCrypt(buf.data() + shift, len, nonce);
        std::vector<uint8_t> want = ref.ctrCrypt(plain, nonce);
        ASSERT_EQ(std::memcmp(buf.data() + shift, want.data(), len), 0)
            << "ctr len " << len << " at offset " << shift;
        ASSERT_EQ(prod.ctrCrypt(want, nonce), plain);
    }

    // Every CTR length from 0 to 300: whole interleave groups, single
    // blocks after them, and a partial tail in every combination.
    AesKey key = randomKey(r);
    Aes128 prod(key, *kernel);
    RefAes128 ref(key);
    AesBlock nonce{};
    r.generate(nonce.data(), nonce.size());
    for (size_t len = 0; len <= 300; len++) {
        std::vector<uint8_t> plain = r.generate(len);
        ASSERT_EQ(prod.ctrCrypt(plain, nonce), ref.ctrCrypt(plain, nonce))
            << "ctr len " << len;
    }

    // The low 64 counter bits wrap at every position inside (and just
    // past) one eight-block group: the counter must wrap to zero
    // without carrying into byte 7.
    for (uint64_t before = 1; before <= 17; before++) {
        AesBlock wrap{};
        r.generate(wrap.data(), 8);
        uint64_t ctr = 0 - before;
        for (int i = 15; i >= 8; i--, ctr >>= 8)
            wrap[size_t(i)] = uint8_t(ctr);
        std::vector<uint8_t> plain = r.generate(16 * 24 + 5);
        ASSERT_EQ(prod.ctrCrypt(plain, wrap), ref.ctrCrypt(plain, wrap))
            << "counter wraps after " << before << " blocks";
    }
}

TEST_P(CryptoKernelSweep, ShaAndHmac)
{
    const detail::Sha256Kernel *kernel = shaKernel();
    if (!kernel) {
        GTEST_SKIP() << "CPUID lacks sha, ssse3 or sse4.1: hardware "
                        "SHA-256 leg not run";
    }
    RecordProperty("kernel", kernel->name);
    CtrDrbg r = rng();

    auto hashOf = [&](const uint8_t *p, size_t n) {
        Sha256 h(*kernel);
        h.update(p, n);
        return h.final();
    };

    // Every length across the one- and two-block padding cases, from
    // an unaligned buffer.
    for (size_t len = 0; len < 200; len++) {
        std::vector<uint8_t> msg = r.generate(len + 1);
        ASSERT_EQ(hashOf(msg.data() + 1, len), refSha256(msg.data() + 1, len))
            << "len " << len;
    }

    // Random splits: updates that top up the buffer and then hand
    // several whole blocks to one compress call, and updates that
    // stay inside the buffer.
    for (int round = 0; round < 10; round++) {
        std::vector<uint8_t> msg =
            r.generate(size_t(r.nextBounded(8192)));
        Digest ref = refSha256(msg);
        ASSERT_EQ(hashOf(msg.data(), msg.size()), ref);

        Sha256 prodH(*kernel);
        RefSha256 refH;
        size_t off = 0;
        while (off < msg.size()) {
            size_t n = std::min<size_t>(r.nextBounded(400) + 1,
                                        msg.size() - off);
            prodH.update(msg.data() + off, n);
            refH.update(msg.data() + off, n);
            off += n;
        }
        ASSERT_EQ(prodH.final(), ref);
        ASSERT_EQ(refH.final(), ref);
    }

    // The raw kernel on 0..4 blocks against the portable one.
    std::vector<uint8_t> blocks = r.generate(4 * 64);
    for (size_t n = 0; n <= 4; n++) {
        uint32_t got[8], want[8];
        for (int i = 0; i < 8; i++)
            got[i] = want[i] = uint32_t(r.next64());
        kernel->compress(got, blocks.data(), n);
        detail::portableSha256().compress(want, blocks.data(), n);
        ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0)
            << n << " blocks";
    }

    // HMAC at every key-size class (short, one block, hashed long
    // keys), one-shot and streamed through begin()/finish().
    for (size_t key_len = 0; key_len < 150; key_len += 7) {
        std::vector<uint8_t> key = r.generate(key_len);
        std::vector<uint8_t> msg =
            r.generate(size_t(r.nextBounded(500)));
        Digest ref = refHmacSha256(key, msg);
        HmacSha256 mac(key, *kernel);
        ASSERT_EQ(mac.mac(msg), ref) << "key len " << key_len;

        Sha256 inner = mac.begin();
        size_t cut = msg.empty() ? 0 : size_t(r.nextBounded(msg.size()));
        inner.update(msg.data(), cut);
        inner.update(msg.data() + cut, msg.size() - cut);
        ASSERT_EQ(mac.finish(inner), ref) << "key len " << key_len;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Legs, CryptoKernelSweep,
    ::testing::Combine(::testing::Values(Leg::Portable, Leg::Hardware),
                       ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<Leg, int>> &info) {
        return std::string(std::get<0>(info.param) == Leg::Portable
                               ? "portable"
                               : "hardware") +
               "_" + std::to_string(std::get<1>(info.param));
    });

/** Each process uses the hardware kernel exactly when CPUID has it. */
TEST(CryptoDispatch, ActiveKernelFollowsCpuid)
{
    const detail::AesKernel *aes = detail::hardwareAes();
    EXPECT_EQ(&detail::activeAes(), aes ? aes : &detail::portableAes());
    const detail::Sha256Kernel *sha = detail::hardwareSha256();
    EXPECT_EQ(&detail::activeSha256(),
              sha ? sha : &detail::portableSha256());
    std::cout << "active kernels: AES " << detail::activeAes().name
              << ", SHA-256 " << detail::activeSha256().name << "\n";
}

// --------------------------------------------------------------------
// Montgomery modExp vs the reference square-and-multiply.
// --------------------------------------------------------------------

TEST_P(CryptoFastSweep, ModExp)
{
    CtrDrbg r = rng();
    for (int round = 0; round < 60; round++) {
        BigNum mod =
            BigNum::fromBytes(r.generate(size_t(r.nextBounded(48)) + 1));
        if (mod.isZero())
            mod = BigNum(1);
        BigNum base =
            BigNum::fromBytes(r.generate(size_t(r.nextBounded(64)) + 1));
        BigNum exp =
            BigNum::fromBytes(r.generate(size_t(r.nextBounded(8)) + 1));
        ASSERT_EQ(base.modExp(exp, mod), refModExp(base, exp, mod))
            << "round " << round << " mod " << mod.toHex();
    }

    // Directed edges: trivial modulus, even modulus (no Montgomery
    // form), zero exponent, zero base, base == mod.
    BigNum m = BigNum::fromHex("f123456789abcdef123457");
    BigNum even = BigNum::fromHex("f123456789abcdef123456");
    BigNum b = BigNum::fromHex("123456789");
    EXPECT_EQ(b.modExp(BigNum(5), BigNum(1)), BigNum());
    EXPECT_EQ(refModExp(b, BigNum(5), BigNum(1)), BigNum());
    EXPECT_EQ(b.modExp(BigNum(77), even), refModExp(b, BigNum(77), even));
    EXPECT_EQ(b.modExp(BigNum(), m), BigNum(1));
    EXPECT_EQ(refModExp(b, BigNum(), m), BigNum(1));
    EXPECT_EQ(BigNum().modExp(BigNum(9), m),
              refModExp(BigNum(), BigNum(9), m));
    EXPECT_EQ(m.modExp(BigNum(3), m), BigNum());
    EXPECT_EQ(refModExp(m, BigNum(3), m), BigNum());

    // Odd 32-bit limb counts (96, 416 bits: the top 64-bit word is
    // half filled) and exponents on both sides of the window-width
    // switch: e = 3 and 65537, 64 and 65 bits, and full width.
    for (size_t bits : {32, 96, 160, 416}) {
        BigNum odd = BigNum::fromBytes(r.generate(bits / 8));
        odd.setBit(bits - 1);
        odd.setBit(0);
        BigNum base = BigNum::fromBytes(r.generate(bits / 8 + 3));
        BigNum e64 = BigNum(r.next64() | (uint64_t(1) << 63));
        BigNum e65 = e64 + e64;
        BigNum full = BigNum::fromBytes(r.generate(bits / 8));
        for (const BigNum &exp :
             {BigNum(3), BigNum(65537), e64, e65, full}) {
            ASSERT_EQ(base.modExp(exp, odd), refModExp(base, exp, odd))
                << bits << "-bit modulus, exponent " << exp.toHex();
        }
    }

    // A 2048-bit odd modulus with 64-bit exponents (the reference
    // ladder is too slow for full-width exponents here).
    BigNum wide = BigNum::fromBytes(r.generate(256));
    wide.setBit(2047);
    wide.setBit(0);
    for (int round = 0; round < 3; round++) {
        BigNum base = BigNum::fromBytes(r.generate(256));
        BigNum exp(r.next64());
        ASSERT_EQ(base.modExp(exp, wide), refModExp(base, exp, wide))
            << "wide round " << round;
    }
}

// --------------------------------------------------------------------
// RSA: identical signatures and ciphertexts (cloned DRBG streams), and
// each side accepts what the other produced. Production signs and
// decrypts by the CRT, the oracle with the full exponent d; keys of
// odd limb counts (352, 416 bits) are in the mix.
// --------------------------------------------------------------------

TEST_P(CryptoFastSweep, RsaOps)
{
    CtrDrbg keygen = rng();
    CtrDrbg r = rng();
    for (size_t bits : {384, 352, 416}) {
        RsaPrivateKey key = rsaGenerate(keygen, bits);
        const BigNum one(1);

        // The raw private op on bases the CRT treats specially: 0, 1,
        // n - 1, the factors and multiples of them (zero mod p or q).
        std::vector<BigNum> bases = {BigNum(),    one,
                                     key.n - one, key.p,
                                     key.q,       key.p * BigNum(7),
                                     key.q * (key.p - one)};
        bases.push_back(BigNum::random(r, key.n));
        for (const BigNum &x : bases) {
            ASSERT_EQ(rsaPrivateOp(key, x), refModExp(x, key.d, key.n))
                << bits << "-bit key, base " << x.toHex();
            // The same values as ciphertexts: both sides agree on the
            // bytes and on the padding verdict.
            std::vector<uint8_t> c =
                x.toBytesPadded(key.publicKey().modulusBytes());
            bool okP = true, okR = true;
            ASSERT_EQ(rsaDecrypt(key, c, okP), refRsaDecrypt(key, c, okR));
            EXPECT_EQ(okP, okR);
        }

        for (int round = 0; round < 3; round++) {
            std::vector<uint8_t> msg =
                r.generate(size_t(r.nextBounded(200)) + 1);

            auto sigP = rsaSign(key, msg);
            auto sigR = refRsaSign(key, msg);
            ASSERT_EQ(sigP, sigR) << bits << "-bit key, round " << round;
            EXPECT_TRUE(rsaVerify(key.publicKey(), msg, sigR));
            EXPECT_TRUE(refRsaVerify(key.publicKey(), msg, sigP));
            std::vector<uint8_t> other = msg;
            other[0] ^= 0x01;
            EXPECT_FALSE(rsaVerify(key.publicKey(), other, sigP));
            EXPECT_FALSE(refRsaVerify(key.publicKey(), other, sigP));

            std::vector<uint8_t> shortMsg = r.generate(16);
            CtrDrbg padP({uint8_t(round), 'p'});
            CtrDrbg padR({uint8_t(round), 'p'});
            auto cP = rsaEncrypt(key.publicKey(), padP, shortMsg);
            auto cR = refRsaEncrypt(key.publicKey(), padR, shortMsg);
            ASSERT_EQ(cP, cR) << bits << "-bit key, round " << round;
            bool okP = false, okR = false;
            ASSERT_EQ(rsaDecrypt(key, cR, okP), shortMsg);
            ASSERT_EQ(refRsaDecrypt(key, cP, okR), shortMsg);
            EXPECT_TRUE(okP && okR);
        }
    }
}

// --------------------------------------------------------------------
// Sealed blobs: byte-identical output, tamper detection on both sides.
// --------------------------------------------------------------------

TEST_P(CryptoFastSweep, SealedBlobs)
{
    CtrDrbg r = rng();
    // Few distinct keys so the derived-key cache gets hits too.
    std::vector<AesKey> keys;
    for (int i = 0; i < 3; i++)
        keys.push_back(randomKey(r));

    for (int round = 0; round < 20; round++) {
        const AesKey &key = keys[round % keys.size()];
        std::vector<uint8_t> plain =
            r.generate(size_t(r.nextBounded(5000)));
        std::vector<uint8_t> aad =
            r.generate(size_t(r.nextBounded(32)));

        CtrDrbg rngP({uint8_t(round), 's'});
        CtrDrbg rngR({uint8_t(round), 's'});
        SealedBlob blobP = seal(key, rngP, plain, aad);
        SealedBlob blobR = refSeal(key, rngR, plain, aad);
        ASSERT_EQ(blobP.serialize(), blobR.serialize())
            << "round " << round;

        bool okP = false, okR = false;
        ASSERT_EQ(unseal(key, blobR, okP, aad), plain);
        ASSERT_EQ(refUnseal(key, blobP, okR, aad), plain);
        EXPECT_TRUE(okP && okR);

        if (!blobP.ciphertext.empty()) {
            SealedBlob bad = blobP;
            bad.ciphertext[size_t(r.nextBounded(
                bad.ciphertext.size()))] ^= 0x01;
            okP = okR = true;
            unseal(key, bad, okP, aad);
            refUnseal(key, bad, okR, aad);
            EXPECT_FALSE(okP);
            EXPECT_FALSE(okR);
        }
    }
}

// --------------------------------------------------------------------
// Ghost-page swap: one booted machine, random swap-out/swap-in traffic
// with tampered pages mixed in. Blobs, RAM, simulated time and stats
// must match constants pinned from a run in which the reference
// ciphers and the production ones agreed byte for byte.
// --------------------------------------------------------------------

namespace
{

struct SwapRig
{
    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::Mmu mmu;
    hw::Iommu iommu;
    hw::Tpm tpm;
    sva::SvaVm vm;
    std::deque<hw::Frame> freeFrames;

    static constexpr int kPages = 4;

    SwapRig()
        : ctx(sim::VgConfig::full()), mem(512), mmu(mem, ctx),
          iommu(mem, ctx), tpm({'c', 's'}), vm(ctx, mem, mmu, iommu, tpm)
    {
        vm.install(384);
        vm.boot();
        for (hw::Frame f = 64; f < 256; f++)
            freeFrames.push_back(f);
        vm.setFrameProvider([this]() -> std::optional<hw::Frame> {
            if (freeFrames.empty())
                return std::nullopt;
            hw::Frame f = freeFrames.front();
            freeFrames.pop_front();
            return f;
        });
        vm.setFrameReceiver(
            [this](hw::Frame f) { freeFrames.push_back(f); });

        sva::SvaError err;
        EXPECT_TRUE(vm.declarePtPage(0, 4, &err)) << err.message;
        EXPECT_TRUE(vm.allocGhostMemory(1, 0, hw::ghostBase, kPages,
                                        &err))
            << err.message;
    }

    /** Fill every ghost-typed frame with bytes from @p fill. */
    void
    fillGhostFrames(const std::vector<uint8_t> &fill)
    {
        size_t off = 0;
        for (hw::Frame f = 0; f < 512; f++) {
            if (vm.frames()[f].type != sva::FrameType::Ghost)
                continue;
            mem.writeBytes(f * hw::pageSize, fill.data() + off,
                           hw::pageSize);
            off += hw::pageSize;
        }
    }
};

/** FNV-1a over a byte range, chained through @p h. */
uint64_t
fnv(const uint8_t *p, size_t n, uint64_t h = 1469598103934665603ull)
{
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** FNV-1a over "name=value\n" for every stat, in name order. */
uint64_t
statMapDigest(const std::map<std::string, uint64_t> &stats)
{
    uint64_t h = 1469598103934665603ull;
    for (const auto &[name, value] : stats) {
        std::string line = name + "=" + std::to_string(value) + "\n";
        h = fnv(reinterpret_cast<const uint8_t *>(line.data()),
                line.size(), h);
    }
    return h;
}

/** Pinned outcome of the GhostPageSwap traffic for one seed. */
struct SwapGolden
{
    int seed;
    size_t blobs;         ///< swap-outs performed
    uint64_t blobDigest;  ///< FNV-1a over every serialized blob, in order
    sim::Cycles clock;    ///< final simulated time
    size_t statCount;     ///< entries in the stat map
    uint64_t statDigest;  ///< statMapDigest() of the final stat map
    uint64_t ramDigest;   ///< FNV-1a over all of physical memory
};

/** Captured while the byte-wise reference ciphers still ran as a second
 *  machine in lockstep and matched this one on every blob, every clock
 *  reading, the full stat map and every RAM frame. */
constexpr SwapGolden kSwapGolden[] = {
    {1, 102, 0xebb8a10387b0866bull, 30950227, 30, 0x5864acca974ff3d9ull,
     0xe2bbd87f7eef0058ull},
    {2, 102, 0x7ca864350d4de490ull, 31080803, 30, 0xbfa4b5cc4807f714ull,
     0x540a4d4536a183b5ull},
    {3, 101, 0x120e67b63f91891cull, 29252739, 30, 0x3f4af98a3c68737full,
     0xa8fd81fee6b7b3d9ull},
    {4, 102, 0xf3a04047c7a32a98ull, 30166771, 30, 0x9103f759af1a0d64ull,
     0x34a0cabb2ef29f9full},
};

} // namespace

TEST_P(CryptoFastSweep, GhostPageSwap)
{
    const SwapGolden &g = kSwapGolden[GetParam() - 1];
    ASSERT_EQ(g.seed, GetParam());
    CtrDrbg r = rng();
    SwapRig rig;

    rig.fillGhostFrames(r.generate(SwapRig::kPages * hw::pageSize));

    std::map<hw::Vaddr, SealedBlob> swapped;
    sva::SvaError err;
    size_t blobs = 0;
    uint64_t blobDigest = fnv(nullptr, 0);

    for (int op = 0; op < 200; op++) {
        hw::Vaddr va =
            hw::ghostBase + r.nextBounded(SwapRig::kPages) * hw::pageSize;
        auto it = swapped.find(va);
        if (it == swapped.end()) {
            auto blob = rig.vm.swapOutGhostPage(1, 0, va, &err);
            ASSERT_TRUE(blob.has_value()) << "op " << op;
            std::vector<uint8_t> bytes = blob->serialize();
            blobDigest = fnv(bytes.data(), bytes.size(), blobDigest);
            blobs++;
            swapped.emplace(va, *blob);
        } else {
            if (r.nextBounded(4) == 0) {
                // A tampered page must be rejected.
                SealedBlob bad = it->second;
                bad.ciphertext[size_t(r.nextBounded(
                    bad.ciphertext.size()))] ^= 0x40;
                EXPECT_FALSE(rig.vm.swapInGhostPage(1, 0, va, bad, &err))
                    << "op " << op;
            }
            ASSERT_TRUE(rig.vm.swapInGhostPage(1, 0, va, it->second,
                                               &err))
                << "op " << op << ": " << err.message;
            swapped.erase(it);
        }
    }

    // Swap everything back in, then compare full machine state.
    for (auto &[va, blob] : swapped)
        ASSERT_TRUE(rig.vm.swapInGhostPage(1, 0, va, blob, &err));

    uint64_t ramDigest = fnv(nullptr, 0);
    std::vector<uint8_t> page(hw::pageSize);
    for (uint64_t pa = 0; pa < rig.mem.sizeBytes(); pa += hw::pageSize) {
        rig.mem.readBytes(pa, page.data(), page.size());
        ramDigest = fnv(page.data(), page.size(), ramDigest);
    }
    const std::map<std::string, uint64_t> &stats = rig.ctx.stats().all();

    EXPECT_EQ(blobs, g.blobs);
    EXPECT_EQ(blobDigest, g.blobDigest);
    EXPECT_EQ(rig.ctx.clock().now(), g.clock);
    EXPECT_EQ(stats.size(), g.statCount);
    EXPECT_EQ(statMapDigest(stats), g.statDigest)
        << ::testing::PrintToString(stats);
    EXPECT_EQ(ramDigest, g.ramDigest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoFastSweep,
                         ::testing::Values(1, 2, 3, 4));
