/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch.
 *
 * Used for HMAC integrity tags on swapped ghost pages and translation
 * signatures, and for application file checksums (S 3.3).
 *
 * update() hands every whole 64-byte block to one multi-block
 * compression call, and final() pads in one stack buffer. Two kernels
 * implement that compression. On x86-64 CPUs with the SHA extensions
 * (CPUID `sha`, with `ssse3` and `sse4.1`), sha256rnds2 does two
 * rounds at a time and sha256msg1/sha256msg2 expand the message
 * schedule. Every other host runs the portable kernel, whose rounds
 * are unrolled eight at a time. Each process picks its kernel once,
 * from CPUID; both produce the FIPS 180-4 digest, so the choice never
 * shows in any output. The textbook rotating round loop with
 * byte-at-a-time padding lives in the test oracle
 * (tests/oracle/crypto_ref.hh), which the KATs and CryptoFastSweep
 * check both kernels against.
 */

#ifndef VG_CRYPTO_SHA256_HH
#define VG_CRYPTO_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vg::crypto
{

/** A 32-byte SHA-256 digest. */
using Digest = std::array<uint8_t, 32>;

namespace detail
{

/** One implementation of the SHA-256 compression function. */
struct Sha256Kernel
{
    const char *name;
    /** Absorb @p nblocks consecutive 64-byte blocks into @p state. */
    void (*compress)(uint32_t state[8], const uint8_t *data,
                     size_t nblocks);
};

/** The portable unrolled-rounds kernel; runs on every host. */
const Sha256Kernel &portableSha256();

/** The SHA-NI kernel, or nullptr when this CPU lacks it. */
const Sha256Kernel *hardwareSha256();

/** The kernel this process uses: hardware when present, chosen once. */
const Sha256Kernel &activeSha256();

} // namespace detail

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    /** A hasher whose compressions run on @p kernel (tests pick a leg). */
    explicit Sha256(
        const detail::Sha256Kernel &kernel = detail::activeSha256())
        : _kernel(&kernel)
    {
        reset();
    }

    /** Reset to the initial state. */
    void reset();

    /** Absorb @p len bytes at @p data. */
    void update(const void *data, size_t len);

    /** Finalize and return the digest; the hasher is then reset. */
    Digest final();

    /** One-shot convenience hash. */
    static Digest hash(const void *data, size_t len);

    /** One-shot hash of a byte vector. */
    static Digest
    hash(const std::vector<uint8_t> &data)
    {
        return hash(data.data(), data.size());
    }

  private:
    const detail::Sha256Kernel *_kernel;
    std::array<uint32_t, 8> _state;
    std::array<uint8_t, 64> _buffer;
    uint64_t _totalLen;
    size_t _bufferLen;
};

/** Render a digest as lowercase hex. */
std::string toHex(const Digest &digest);

} // namespace vg::crypto

#endif // VG_CRYPTO_SHA256_HH
