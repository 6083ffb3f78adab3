/**
 * @file
 * BigNum arithmetic and RSA tests, including parameterized property
 * sweeps over random operands.
 */

#include <gtest/gtest.h>

#include "crypto/bignum.hh"
#include "crypto/drbg.hh"
#include "crypto/rsa.hh"

using namespace vg::crypto;

TEST(BigNum, ConstructAndCompare)
{
    BigNum zero;
    BigNum a(42);
    BigNum b(0x100000000ull);
    EXPECT_TRUE(zero.isZero());
    EXPECT_FALSE(a.isZero());
    EXPECT_LT(zero, a);
    EXPECT_LT(a, b);
    EXPECT_EQ(b.bitLength(), 33u);
    EXPECT_EQ(a, BigNum(42));
}

TEST(BigNum, HexRoundtrip)
{
    BigNum n = BigNum::fromHex("deadbeefcafebabe0123456789abcdef");
    EXPECT_EQ(n.toHex(), "deadbeefcafebabe0123456789abcdef");
    EXPECT_EQ(BigNum(0).toHex(), "0");
    EXPECT_EQ(BigNum::fromHex("0000ff").toHex(), "ff");
}

TEST(BigNum, BytesRoundtrip)
{
    std::vector<uint8_t> bytes = {0x01, 0x02, 0x03, 0xff};
    BigNum n = BigNum::fromBytes(bytes);
    EXPECT_EQ(n.toBytes(), bytes);
    EXPECT_EQ(n.toBytesPadded(6),
              (std::vector<uint8_t>{0, 0, 0x01, 0x02, 0x03, 0xff}));
}

TEST(BigNum, AddSub)
{
    BigNum a = BigNum::fromHex("ffffffffffffffff");
    BigNum b(1);
    EXPECT_EQ((a + b).toHex(), "10000000000000000");
    EXPECT_EQ((a + b - b), a);
    EXPECT_EQ((a - a).toHex(), "0");
}

TEST(BigNum, Mul)
{
    BigNum a = BigNum::fromHex("ffffffff");
    EXPECT_EQ((a * a).toHex(), "fffffffe00000001");
    EXPECT_EQ((a * BigNum(0)).toHex(), "0");
    EXPECT_EQ((BigNum(12345) * BigNum(6789)), BigNum(83810205));
}

TEST(BigNum, Shifts)
{
    BigNum a(1);
    EXPECT_EQ((a << 100).bitLength(), 101u);
    EXPECT_EQ(((a << 100) >> 100), a);
    EXPECT_EQ((BigNum(0xff) >> 4), BigNum(0xf));
    EXPECT_TRUE((a >> 1).isZero());
}

TEST(BigNum, DivMod)
{
    BigNum a(1000), b(7);
    BigNum q, r;
    a.divmod(b, q, r);
    EXPECT_EQ(q, BigNum(142));
    EXPECT_EQ(r, BigNum(6));
    EXPECT_EQ(BigNum(5) / BigNum(10), BigNum(0));
    EXPECT_EQ(BigNum(5) % BigNum(10), BigNum(5));
}

TEST(BigNum, ModExpKnown)
{
    EXPECT_EQ(BigNum(4).modExp(BigNum(13), BigNum(497)), BigNum(445));
    EXPECT_EQ(BigNum(2).modExp(BigNum(10), BigNum(1000)), BigNum(24));
    EXPECT_EQ(BigNum(7).modExp(BigNum(0), BigNum(13)), BigNum(1));
}

TEST(BigNum, ModInverse)
{
    bool ok = false;
    BigNum inv = BigNum(3).modInverse(BigNum(11), ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(inv, BigNum(4));

    BigNum no_inv = BigNum(4).modInverse(BigNum(8), ok);
    EXPECT_FALSE(ok);
    (void)no_inv;
}

TEST(BigNum, Gcd)
{
    EXPECT_EQ(BigNum::gcd(BigNum(48), BigNum(36)), BigNum(12));
    EXPECT_EQ(BigNum::gcd(BigNum(17), BigNum(5)), BigNum(1));
    EXPECT_EQ(BigNum::gcd(BigNum(0), BigNum(7)), BigNum(7));
}

TEST(BigNum, PrimalityKnownValues)
{
    CtrDrbg rng({'p'});
    EXPECT_TRUE(BigNum(2).isProbablePrime(rng));
    EXPECT_TRUE(BigNum(3).isProbablePrime(rng));
    EXPECT_TRUE(BigNum(65537).isProbablePrime(rng));
    EXPECT_TRUE(BigNum::fromHex("fffffffb").isProbablePrime(rng));
    EXPECT_FALSE(BigNum(1).isProbablePrime(rng));
    EXPECT_FALSE(BigNum(561).isProbablePrime(rng)); // Carmichael
    EXPECT_FALSE(BigNum(65536).isProbablePrime(rng));
}

/**
 * Property sweep: algebraic identities over random operands of varying
 * widths.
 */
class BigNumProperty : public ::testing::TestWithParam<size_t>
{};

TEST_P(BigNumProperty, DivModReconstructs)
{
    size_t bits = GetParam();
    CtrDrbg rng({'d', uint8_t(bits)});
    for (int i = 0; i < 20; i++) {
        BigNum a = BigNum::randomBits(rng, bits);
        BigNum b = BigNum::randomBits(rng, bits / 2 + 1);
        BigNum q, r;
        a.divmod(b, q, r);
        EXPECT_EQ(q * b + r, a);
        EXPECT_LT(r, b);
    }
}

TEST_P(BigNumProperty, MulDistributesOverAdd)
{
    size_t bits = GetParam();
    CtrDrbg rng({'m', uint8_t(bits)});
    for (int i = 0; i < 20; i++) {
        BigNum a = BigNum::randomBits(rng, bits);
        BigNum b = BigNum::randomBits(rng, bits);
        BigNum c = BigNum::randomBits(rng, bits);
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TEST_P(BigNumProperty, ShiftIsMulByPowerOfTwo)
{
    size_t bits = GetParam();
    CtrDrbg rng({'s', uint8_t(bits)});
    for (int i = 0; i < 10; i++) {
        BigNum a = BigNum::randomBits(rng, bits);
        size_t k = rng.nextBounded(60) + 1;
        BigNum pow2(1);
        pow2 = pow2 << k;
        EXPECT_EQ(a << k, a * pow2);
    }
}

TEST_P(BigNumProperty, ModExpMatchesNaive)
{
    size_t bits = GetParam();
    CtrDrbg rng({'e', uint8_t(bits)});
    for (int i = 0; i < 5; i++) {
        BigNum base = BigNum::randomBits(rng, bits);
        BigNum mod = BigNum::randomBits(rng, bits);
        if (mod.isZero())
            continue;
        uint64_t exp = rng.nextBounded(20);
        BigNum naive(1);
        naive = naive % mod;
        for (uint64_t j = 0; j < exp; j++)
            naive = (naive * base) % mod;
        EXPECT_EQ(base.modExp(BigNum(exp), mod), naive);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigNumProperty,
                         ::testing::Values(16, 48, 96, 160, 256));

// --------------------------------------------------------------------
// RSA
// --------------------------------------------------------------------

namespace
{

/** Shared small test key (generation dominates test time). */
const RsaPrivateKey &
testKey()
{
    static RsaPrivateKey key = [] {
        CtrDrbg rng({'k', 'e', 'y'});
        return rsaGenerate(rng, 384);
    }();
    return key;
}

} // namespace

TEST(Rsa, KeyStructure)
{
    const RsaPrivateKey &key = testKey();
    EXPECT_EQ(key.n, key.p * key.q);
    EXPECT_GE(key.n.bitLength(), 380u);
    // d*e == 1 mod (p-1)(q-1)
    BigNum phi = (key.p - BigNum(1)) * (key.q - BigNum(1));
    EXPECT_EQ((key.d * key.e) % phi, BigNum(1));
}

TEST(Rsa, EncryptDecryptRoundtrip)
{
    const RsaPrivateKey &key = testKey();
    CtrDrbg rng({'r'});
    std::vector<uint8_t> msg = {'s', 'e', 'c', 'r', 'e', 't'};
    auto cipher = rsaEncrypt(key.publicKey(), rng, msg);
    EXPECT_EQ(cipher.size(), key.publicKey().modulusBytes());
    bool ok = false;
    EXPECT_EQ(rsaDecrypt(key, cipher, ok), msg);
    EXPECT_TRUE(ok);
}

TEST(Rsa, EncryptionIsRandomized)
{
    const RsaPrivateKey &key = testKey();
    CtrDrbg rng({'r'});
    std::vector<uint8_t> msg = {1, 2, 3};
    auto c1 = rsaEncrypt(key.publicKey(), rng, msg);
    auto c2 = rsaEncrypt(key.publicKey(), rng, msg);
    EXPECT_NE(c1, c2);
}

TEST(Rsa, DecryptRejectsTampered)
{
    const RsaPrivateKey &key = testKey();
    CtrDrbg rng({'r'});
    auto cipher = rsaEncrypt(key.publicKey(), rng, {1, 2, 3, 4});
    cipher[cipher.size() / 2] ^= 0x55;
    bool ok = true;
    rsaDecrypt(key, cipher, ok);
    // Tampering either breaks padding (ok=false) or yields different
    // bytes; padding failure is the expected path.
    if (ok) {
        auto got = rsaDecrypt(key, cipher, ok);
        EXPECT_NE(got, (std::vector<uint8_t>{1, 2, 3, 4}));
    }
}

TEST(Rsa, SignVerify)
{
    const RsaPrivateKey &key = testKey();
    std::vector<uint8_t> msg(200, 0x3c);
    auto sig = rsaSign(key, msg);
    EXPECT_TRUE(rsaVerify(key.publicKey(), msg, sig));

    msg[0] ^= 1;
    EXPECT_FALSE(rsaVerify(key.publicKey(), msg, sig));
    msg[0] ^= 1;
    sig[10] ^= 1;
    EXPECT_FALSE(rsaVerify(key.publicKey(), msg, sig));
}

TEST(Rsa, VerifyRejectsWrongKey)
{
    const RsaPrivateKey &key = testKey();
    CtrDrbg rng({'k', '2'});
    RsaPrivateKey other = rsaGenerate(rng, 384);
    std::vector<uint8_t> msg = {'m'};
    auto sig = rsaSign(key, msg);
    EXPECT_FALSE(rsaVerify(other.publicKey(), msg, sig));
}

TEST(Rsa, SerializeRoundtrip)
{
    const RsaPrivateKey &key = testKey();
    bool ok = false;
    RsaPrivateKey back =
        RsaPrivateKey::deserialize(key.serialize(), ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(back.n, key.n);
    EXPECT_EQ(back.d, key.d);

    RsaPublicKey pub =
        RsaPublicKey::deserialize(key.publicKey().serialize(), ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(pub.n, key.n);
    EXPECT_EQ(pub.e, key.e);
}

TEST(Rsa, DeserializeRejectsTruncated)
{
    std::vector<uint8_t> bytes = testKey().serialize();
    for (size_t len = 0; len < bytes.size(); len++) {
        bool ok = true;
        RsaPrivateKey::deserialize(
            std::vector<uint8_t>(bytes.begin(), bytes.begin() + long(len)),
            ok);
        EXPECT_FALSE(ok) << "length " << len;
    }
}

// --------------------------------------------------------------------
// Hostile key bytes: the OS can hand an application any key file. A
// key whose factors do not fit together must be refused, never reach
// the CRT (where p - 1 could underflow) or panic.
// --------------------------------------------------------------------

namespace
{

/** Offset of field @p index's payload in a serialized key. */
size_t
fieldPayload(const std::vector<uint8_t> &bytes, int index)
{
    size_t off = 0;
    for (int i = 0; i < index; i++)
        off += 2 + ((size_t(bytes[off]) << 8) | bytes[off + 1]);
    return off + 2;
}

/** Serialize @p key with its factor fields replaced. */
std::vector<uint8_t>
withFactors(const RsaPrivateKey &key, const BigNum &p, const BigNum &q)
{
    RsaPrivateKey bad = key;
    bad.p = p;
    bad.q = q;
    return bad.serialize();
}

bool
deserializes(const std::vector<uint8_t> &bytes)
{
    bool ok = true;
    RsaPrivateKey::deserialize(bytes, ok);
    return ok;
}

} // namespace

TEST(Rsa, DeserializeRejectsFlippedFactorByte)
{
    const RsaPrivateKey &key = testKey();
    std::vector<uint8_t> bytes = key.serialize();
    for (int field : {3, 4}) { // p, q
        size_t at = fieldPayload(bytes, field);
        for (size_t i = 0; i < 24; i++) {
            std::vector<uint8_t> bad = bytes;
            bad[at + i] ^= uint8_t(1u << (i % 8));
            EXPECT_FALSE(deserializes(bad))
                << "field " << field << " byte " << i;
        }
    }
    EXPECT_TRUE(deserializes(bytes));
}

TEST(Rsa, DeserializeRejectsDegenerateFactors)
{
    const RsaPrivateKey &key = testKey();
    BigNum zero, one(1);
    EXPECT_FALSE(deserializes(withFactors(key, zero, key.q)));
    EXPECT_FALSE(deserializes(withFactors(key, key.p, zero)));
    EXPECT_FALSE(deserializes(withFactors(key, zero, zero)));
    // n = 1 * n and n = n * 1 multiply out but are not a factoring.
    EXPECT_FALSE(deserializes(withFactors(key, one, key.n)));
    EXPECT_FALSE(deserializes(withFactors(key, key.n, one)));

    // p == q: n = p^2 multiplies out, but q has no inverse mod p.
    RsaPrivateKey square = key;
    square.n = key.p * key.p;
    square.q = key.p;
    EXPECT_FALSE(deserializes(square.serialize()));
}

TEST(Rsa, DeserializeRejectsTinyModulus)
{
    // n = 15 = 3 * 5 with e = d = 3 is a consistent key (e*d = 1 mod
    // phi = 8), but no padding fits it: parsing must fail instead of
    // leaving rsaEncrypt/rsaSign/rsaVerify to end the simulation.
    RsaPrivateKey tiny;
    tiny.n = BigNum(15);
    tiny.e = BigNum(3);
    tiny.d = BigNum(3);
    tiny.p = BigNum(3);
    tiny.q = BigNum(5);
    EXPECT_FALSE(deserializes(tiny.serialize()));
    bool ok = true;
    RsaPublicKey::deserialize(tiny.publicKey().serialize(), ok);
    EXPECT_FALSE(ok);

    // A real 42-byte modulus is one byte short; 43 bytes is the floor.
    for (size_t bits : {336, 344}) {
        CtrDrbg rng({'t', 'i', 'n', 'y', uint8_t(bits)});
        RsaPrivateKey key = rsaGenerate(rng, bits);
        size_t bytes = key.publicKey().modulusBytes();
        ASSERT_EQ(bytes, bits / 8);
        bool accept = bytes >= kRsaMinModulusBytes;
        EXPECT_EQ(deserializes(key.serialize()), accept) << bits;
        ok = !accept;
        RsaPublicKey::deserialize(key.publicKey().serialize(), ok);
        EXPECT_EQ(ok, accept) << bits;
    }
}

TEST(Rsa, SwappedFactorsStillAKey)
{
    // (q, p) is as good a factoring as (p, q): the key loads and its
    // CRT gives the same signatures.
    const RsaPrivateKey &key = testKey();
    bool ok = false;
    RsaPrivateKey swapped =
        RsaPrivateKey::deserialize(withFactors(key, key.q, key.p), ok);
    ASSERT_TRUE(ok);
    std::vector<uint8_t> msg = {'s', 'w', 'a', 'p'};
    EXPECT_EQ(rsaSign(swapped, msg), rsaSign(key, msg));
}

// --------------------------------------------------------------------
// Golden keys: rsaGenerate must consume the DRBG exactly as it always
// has (every simulated number downstream depends on the bytes it
// draws), and serialize() must keep its byte layout.
// --------------------------------------------------------------------

namespace
{

/** FNV-1a over a byte string. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

struct KeyGolden
{
    uint8_t seed;
    const char *n;
    const char *d;
    const char *p;
    const char *q;
    uint64_t serialDigest; ///< fnv1a(serialize())
    uint64_t next;         ///< the DRBG's next64() after keygen
};

constexpr KeyGolden kKeyGolden[] = {
    {1,
     "580f6a08e50af6b39e7b98da552515200bb60d784e9a2e25"
     "4cf7801a0a4adf68bc2984ba8034032eba3dc0c7e8222e5f",
     "3f72bbbfb4e7f560edebb7f2782ec3cdd722510a41f82d0e"
     "b02c0be2ce95a8d4c03a8e85b90f8c5c75f5ba7dd73dfc01",
     "af70ad2c5e822a96680bd36a95de9f376874cbf079c2d0df",
     "807f0f64f8f602cfe4df390aa7463f0378fb1cf0d660d281",
     0xebfd67c34a12a5a8ull, 0x5492bccbeb18129aull},
    {2,
     "8444d4d6d53451e38d618bdc9d70dc4bbf17c0a7139fd102"
     "37b2a8b8668826bad5a2e0d3606485ee769faac7b15fdef3",
     "5556c3ac48ab151aa82183c7b79d15c599698dd73e8622a7"
     "3f0afb6b50c8ef3660e726787e00571d5dc822a7e0d0b241",
     "f9a4db895af9e9680b1aebce6299db3e4b510aad320652f9",
     "87a2f0b8802f237ce14303b8b44fc82ca3e01ea36686104b",
     0xaec3d258fa25d048ull, 0x54ea8bbb10975a7full},
    {3,
     "a3b56e05fc59330cce835541ed2b5d31df8cd209d73fbb3f"
     "b74333dae59ebef9e6137f61a56017ad8f78a0567d9a2c19",
     "13895a48f2957e871fba0299ac81094d235d7dcf58d5ad35"
     "bb49085136c141b1e562d99f07a0a34ca62b1fe19c0ee9a5",
     "e0bbdefc442def49f09f7fa2e385c337e4ee34a85f7585df",
     "ba7c15a7c4cf193b6567fc690e42d8c98b418622f96edd07",
     0xc396be8672d9e6d4ull, 0x6b18bf5add6a44ddull},
};

} // namespace

TEST(Rsa, GoldenKeygen)
{
    for (const KeyGolden &g : kKeyGolden) {
        CtrDrbg rng({g.seed, 'g', 'k'});
        RsaPrivateKey key = rsaGenerate(rng, 384);
        EXPECT_EQ(key.n.toHex(), g.n) << "seed " << int(g.seed);
        EXPECT_EQ(key.d.toHex(), g.d) << "seed " << int(g.seed);
        EXPECT_EQ(key.p.toHex(), g.p) << "seed " << int(g.seed);
        EXPECT_EQ(key.q.toHex(), g.q) << "seed " << int(g.seed);
        EXPECT_EQ(fnv1a(key.serialize()), g.serialDigest)
            << "seed " << int(g.seed);
        // The generator's stream position after the key: a change in
        // how many bytes keygen draws shows here even if the key
        // happened to survive it.
        EXPECT_EQ(rng.next64(), g.next) << "seed " << int(g.seed);
    }
}
