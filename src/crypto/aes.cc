#include "crypto/aes.hh"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace vg::crypto
{

namespace
{

/** GF(2^8) multiply by x (xtime). */
inline uint8_t
xtime(uint8_t a)
{
    return uint8_t((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

inline uint32_t
rotr32(uint32_t x, unsigned n)
{
    // (-n & 31) keeps the left shift in [0, 31]; a plain 32 - n is
    // undefined for n == 0.
    return (x >> (n & 31)) | (x << (-n & 31));
}

} // namespace

namespace detail
{

void
buildAesSboxes(uint8_t sbox[256], uint8_t inv_sbox[256])
{
    // 0x03 generates the multiplicative group of GF(2^8): walk
    // pow3[i] = 3^i once, recording discrete logs, and read every
    // inverse off as 3^(255 - log3[a]). One linear pass replaces the
    // quadratic search for each element's inverse.
    uint8_t pow3[256];
    uint8_t log3[256] = {0};
    uint8_t p = 1;
    for (int i = 0; i < 255; i++) {
        pow3[i] = p;
        log3[p] = uint8_t(i);
        p = uint8_t(p ^ xtime(p)); // p *= 0x03
    }
    pow3[255] = pow3[0];

    for (int i = 0; i < 256; i++) {
        uint8_t x = i ? pow3[255 - log3[i]] : 0;
        uint8_t y = uint8_t(x ^ (uint8_t)(x << 1 | x >> 7) ^
                            (uint8_t)(x << 2 | x >> 6) ^
                            (uint8_t)(x << 3 | x >> 5) ^
                            (uint8_t)(x << 4 | x >> 4) ^ 0x63);
        sbox[i] = y;
        inv_sbox[y] = uint8_t(i);
    }
}

} // namespace detail

namespace
{

struct Tables
{
    uint8_t sbox[256];
    /** Encrypt round tables: te[0][x] = MixColumn of S[x] at row 0;
     *  te[i] is te[0] rotated right by 8i bits. */
    uint32_t te[4][256];

    Tables()
    {
        uint8_t inv_sbox[256];
        detail::buildAesSboxes(sbox, inv_sbox);
        for (int i = 0; i < 256; i++) {
            uint8_t s = sbox[i];
            uint32_t e = (uint32_t(xtime(s)) << 24) |
                         (uint32_t(s) << 16) | (uint32_t(s) << 8) |
                         uint32_t(uint8_t(s ^ xtime(s))); // (2s,s,s,3s)
            for (int r = 0; r < 4; r++)
                te[r][i] = rotr32(e, unsigned(8 * r));
        }
    }
};

const Tables &
tables()
{
    static const Tables t;
    return t;
}

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint32_t
be32(const uint8_t *p)
{
    return (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
           (uint32_t(p[2]) << 8) | uint32_t(p[3]);
}

inline void
putBe32(uint8_t *p, uint32_t v)
{
    p[0] = uint8_t(v >> 24);
    p[1] = uint8_t(v >> 16);
    p[2] = uint8_t(v >> 8);
    p[3] = uint8_t(v);
}

// --------------------------------------------------------------------
// Portable kernel. T-table rounds: SubBytes+ShiftRows+MixColumns
// collapse to four table lookups and three XORs per output word.
// --------------------------------------------------------------------

void
portableEncryptBlock(const uint8_t *rk, uint8_t block[16])
{
    const Tables &t = tables();
    uint32_t s0 = be32(block) ^ be32(rk);
    uint32_t s1 = be32(block + 4) ^ be32(rk + 4);
    uint32_t s2 = be32(block + 8) ^ be32(rk + 8);
    uint32_t s3 = be32(block + 12) ^ be32(rk + 12);

    for (int round = 1; round < 10; round++) {
        rk += 16;
        uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                      t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^
                      be32(rk);
        uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                      t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^
                      be32(rk + 4);
        uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                      t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^
                      be32(rk + 8);
        uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                      t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^
                      be32(rk + 12);
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    rk += 16;
    uint32_t o0 = (uint32_t(t.sbox[s0 >> 24]) << 24) |
                  (uint32_t(t.sbox[(s1 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.sbox[(s2 >> 8) & 0xff]) << 8) |
                  uint32_t(t.sbox[s3 & 0xff]);
    uint32_t o1 = (uint32_t(t.sbox[s1 >> 24]) << 24) |
                  (uint32_t(t.sbox[(s2 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.sbox[(s3 >> 8) & 0xff]) << 8) |
                  uint32_t(t.sbox[s0 & 0xff]);
    uint32_t o2 = (uint32_t(t.sbox[s2 >> 24]) << 24) |
                  (uint32_t(t.sbox[(s3 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.sbox[(s0 >> 8) & 0xff]) << 8) |
                  uint32_t(t.sbox[s1 & 0xff]);
    uint32_t o3 = (uint32_t(t.sbox[s3 >> 24]) << 24) |
                  (uint32_t(t.sbox[(s0 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.sbox[(s1 >> 8) & 0xff]) << 8) |
                  uint32_t(t.sbox[s2 & 0xff]);
    putBe32(block, o0 ^ be32(rk));
    putBe32(block + 4, o1 ^ be32(rk + 4));
    putBe32(block + 8, o2 ^ be32(rk + 8));
    putBe32(block + 12, o3 ^ be32(rk + 12));
}

void
portableCtrCrypt(const uint8_t *rk, uint8_t *data, size_t len,
                 const uint8_t nonce[16])
{
    uint8_t counter[16];
    std::memcpy(counter, nonce, 16);
    uint8_t keystream[16];

    size_t off = 0;
    // Whole blocks: XOR the keystream in two 64-bit lanes.
    for (; off + 16 <= len; off += 16) {
        std::memcpy(keystream, counter, 16);
        portableEncryptBlock(rk, keystream);
        uint64_t d0, d1, k0, k1;
        std::memcpy(&d0, data + off, 8);
        std::memcpy(&d1, data + off + 8, 8);
        std::memcpy(&k0, keystream, 8);
        std::memcpy(&k1, keystream + 8, 8);
        d0 ^= k0;
        d1 ^= k1;
        std::memcpy(data + off, &d0, 8);
        std::memcpy(data + off + 8, &d1, 8);
        // Increment the big-endian counter in the low 8 bytes.
        for (int i = 15; i >= 8; i--) {
            if (++counter[i] != 0)
                break;
        }
    }
    // Trailing partial block.
    if (off < len) {
        std::memcpy(keystream, counter, 16);
        portableEncryptBlock(rk, keystream);
        for (size_t i = 0; off + i < len; i++)
            data[off + i] ^= keystream[i];
    }
}

constexpr detail::AesKernel kPortable = {"portable", portableEncryptBlock,
                                         portableCtrCrypt};

#if defined(__x86_64__)

// --------------------------------------------------------------------
// AES-NI kernel: one aesenc per round over the byte-order schedule.
// --------------------------------------------------------------------

__attribute__((target("aes"))) inline void
aesniLoadKeys(const uint8_t *rk, __m128i k[11])
{
    for (size_t i = 0; i < 11; i++)
        k[i] =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(rk + 16 * i));
}

__attribute__((target("aes"))) inline __m128i
aesniEncrypt(const __m128i k[11], __m128i b)
{
    b = _mm_xor_si128(b, k[0]);
    for (int r = 1; r < 10; r++)
        b = _mm_aesenc_si128(b, k[r]);
    return _mm_aesenclast_si128(b, k[10]);
}

/** The counter block for counter value @p ctr: bytes 0..7 of the nonce
 *  (@p hi, as loaded) and @p ctr big-endian in bytes 8..15. */
inline __m128i
counterBlock(uint64_t hi, uint64_t ctr)
{
    return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(ctr)),
                          static_cast<long long>(hi));
}

__attribute__((target("aes"))) void
aesniEncryptBlock(const uint8_t *rk, uint8_t block[16])
{
    __m128i k[11];
    aesniLoadKeys(rk, k);
    __m128i *p = reinterpret_cast<__m128i *>(block);
    _mm_storeu_si128(p, aesniEncrypt(k, _mm_loadu_si128(p)));
}

__attribute__((target("aes"))) void
aesniCtrCrypt(const uint8_t *rk, uint8_t *data, size_t len,
              const uint8_t nonce[16])
{
    __m128i k[11];
    aesniLoadKeys(rk, k);
    uint64_t hi, ctr_be;
    std::memcpy(&hi, nonce, 8);
    std::memcpy(&ctr_be, nonce + 8, 8);
    // Native arithmetic on the counter; uint64_t wraparound is the
    // no-carry-into-byte-7 rule.
    uint64_t ctr = __builtin_bswap64(ctr_be);

    // Eight independent blocks per iteration keep the AES unit's
    // pipeline full; a single block would wait out each round's
    // latency.
    constexpr size_t kLanes = 8;
    size_t off = 0;
    for (; off + 16 * kLanes <= len; off += 16 * kLanes) {
        __m128i b[kLanes];
#pragma GCC unroll 8
        for (size_t i = 0; i < kLanes; i++)
            b[i] = _mm_xor_si128(counterBlock(hi, ctr + i), k[0]);
        ctr += kLanes;
#pragma GCC unroll 9
        for (int r = 1; r < 10; r++) {
#pragma GCC unroll 8
            for (size_t i = 0; i < kLanes; i++)
                b[i] = _mm_aesenc_si128(b[i], k[r]);
        }
#pragma GCC unroll 8
        for (size_t i = 0; i < kLanes; i++) {
            __m128i *p = reinterpret_cast<__m128i *>(data + off + 16 * i);
            __m128i ks = _mm_aesenclast_si128(b[i], k[10]);
            _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), ks));
        }
    }
    for (; off + 16 <= len; off += 16) {
        __m128i *p = reinterpret_cast<__m128i *>(data + off);
        __m128i ks = aesniEncrypt(k, counterBlock(hi, ctr++));
        _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), ks));
    }
    // Trailing partial block.
    if (off < len) {
        uint8_t ks[16];
        _mm_storeu_si128(reinterpret_cast<__m128i *>(ks),
                         aesniEncrypt(k, counterBlock(hi, ctr)));
        for (size_t i = 0; off + i < len; i++)
            data[off + i] ^= ks[i];
    }
}

constexpr detail::AesKernel kAesni = {"aes-ni", aesniEncryptBlock,
                                      aesniCtrCrypt};

#endif // __x86_64__

} // namespace

namespace detail
{

const AesKernel &
portableAes()
{
    return kPortable;
}

const AesKernel *
hardwareAes()
{
#if defined(__x86_64__)
    static const bool present = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("aes") != 0;
    }();
    return present ? &kAesni : nullptr;
#else
    return nullptr;
#endif
}

const AesKernel &
activeAes()
{
    static const AesKernel &kernel =
        hardwareAes() ? *hardwareAes() : portableAes();
    return kernel;
}

} // namespace detail

Aes128::Aes128(const AesKey &key, const detail::AesKernel &kernel)
    : _kernel(&kernel)
{
    const Tables &t = tables();
    uint32_t w[44];
    for (size_t i = 0; i < 4; i++)
        w[i] = be32(key.data() + 4 * i);
    for (size_t i = 4; i < 44; i++) {
        uint32_t temp = w[i - 1];
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            temp = (temp << 8) | (temp >> 24);
            temp = (uint32_t(t.sbox[(temp >> 24) & 0xff]) << 24) |
                   (uint32_t(t.sbox[(temp >> 16) & 0xff]) << 16) |
                   (uint32_t(t.sbox[(temp >> 8) & 0xff]) << 8) |
                   uint32_t(t.sbox[temp & 0xff]);
            temp ^= uint32_t(kRcon[i / 4]) << 24;
        }
        w[i] = w[i - 4] ^ temp;
    }
    for (size_t i = 0; i < 44; i++)
        putBe32(_roundKeys.data() + 4 * i, w[i]);
}

std::vector<uint8_t>
Aes128::ctrCrypt(const std::vector<uint8_t> &data,
                 const AesBlock &nonce) const
{
    std::vector<uint8_t> out(data);
    ctrCrypt(out.data(), out.size(), nonce);
    return out;
}

} // namespace vg::crypto
