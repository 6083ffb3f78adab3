/**
 * @file
 * AES-128 encryption implemented from scratch (FIPS 197), with CTR
 * mode.
 *
 * This is the symmetric cipher behind application keys (S 3.3), ghost
 * page swapping (S 3.3), and the ssh session transport (S 6). The
 * paper's prototype hard-codes a 128-bit AES application key; we keep
 * the same key size. Sealing is CTR plus HMAC, so only the forward
 * cipher exists.
 *
 * Two kernels run the rounds over the same byte-order key schedule.
 * On x86-64 CPUs with AES-NI (CPUID `aes`), aesenc/aesenclast do a
 * round each and CTR keeps eight independent blocks in flight. Every
 * other host runs the portable kernel: precomputed T-tables, with CTR
 * XORing whole blocks in 64-bit lanes. Each process picks its kernel
 * once, from CPUID; both produce the FIPS 197 bytes, so the choice
 * never shows in any output. The textbook byte-oriented
 * SubBytes/ShiftRows/MixColumns cipher lives in the test oracle
 * (tests/oracle/crypto_ref.hh), which the KATs and CryptoFastSweep
 * check both kernels against.
 */

#ifndef VG_CRYPTO_AES_HH
#define VG_CRYPTO_AES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vg::crypto
{

/** A 128-bit symmetric key. */
using AesKey = std::array<uint8_t, 16>;

/** A 128-bit block / IV / counter. */
using AesBlock = std::array<uint8_t, 16>;

namespace detail
{

/**
 * Build the AES S-box and its inverse from the xtime/exponentiation
 * construction: 0x03 generates GF(2^8)*, so log/antilog tables give
 * every multiplicative inverse in one pass (no O(256^2) search).
 * Exposed so table generation is testable on its own.
 */
void buildAesSboxes(uint8_t sbox[256], uint8_t inv_sbox[256]);

/**
 * One implementation of the AES-128 rounds. Both functions take the
 * expanded key schedule: 11 round keys of 16 bytes, in byte order.
 */
struct AesKernel
{
    const char *name;
    /** Encrypt one 16-byte block in place. */
    void (*encryptBlock)(const uint8_t *round_keys, uint8_t block[16]);
    /** XOR the CTR keystream for @p nonce over @p len bytes. */
    void (*ctrCrypt)(const uint8_t *round_keys, uint8_t *data, size_t len,
                     const uint8_t nonce[16]);
};

/** The portable T-table kernel; runs on every host. */
const AesKernel &portableAes();

/** The AES-NI kernel, or nullptr when this CPU lacks it. */
const AesKernel *hardwareAes();

/** The kernel this process uses: hardware when present, chosen once. */
const AesKernel &activeAes();

} // namespace detail

/** AES-128 block cipher with expanded round keys. */
class Aes128
{
  public:
    /** Expand @p key; @p kernel runs the rounds (tests pick a leg). */
    explicit Aes128(const AesKey &key,
                    const detail::AesKernel &kernel = detail::activeAes());

    /** Encrypt one 16-byte block in place. */
    void
    encryptBlock(uint8_t block[16]) const
    {
        _kernel->encryptBlock(_roundKeys.data(), block);
    }

    /**
     * CTR-mode keystream XOR (encryption == decryption). The counter is
     * the big-endian integer in bytes 8..15 of @p nonce; it wraps
     * without carrying into byte 7.
     */
    std::vector<uint8_t> ctrCrypt(const std::vector<uint8_t> &data,
                                  const AesBlock &nonce) const;

    /** CTR-mode in place over a raw buffer. */
    void
    ctrCrypt(uint8_t *data, size_t len, const AesBlock &nonce) const
    {
        _kernel->ctrCrypt(_roundKeys.data(), data, len, nonce.data());
    }

  private:
    const detail::AesKernel *_kernel;
    /** The 11 round keys, 16 bytes each, in byte order. */
    alignas(16) std::array<uint8_t, 176> _roundKeys;
};

} // namespace vg::crypto

#endif // VG_CRYPTO_AES_HH
