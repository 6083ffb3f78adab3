/**
 * @file
 * Demand-zero host storage for simulated RAM and disks.
 *
 * A machine's RAM and SSD are large (tens to hundreds of MB) but a run
 * touches a small part of them. The bytes are a private anonymous
 * mapping the host kernel zero-fills on first touch, so creating and
 * destroying a machine does not pay to fill and free memory it never
 * uses. Reads of untouched storage still return zero, exactly as an
 * eagerly zeroed array would.
 *
 * The mapping is made directly because calloc() does not guarantee
 * this: once glibc has freed one large mapped block it raises its mmap
 * threshold and serves later blocks of up to 32 MB from the heap,
 * where calloc() must memset them and so touches every page.
 */

#ifndef VG_HW_ZEROED_HH
#define VG_HW_ZEROED_HH

#include <sys/mman.h>

#include <cstdint>

#include "sim/log.hh"

namespace vg::hw
{

/** A fixed-size, zero-initialised, non-copyable byte array. */
class ZeroedBytes
{
  public:
    /** @p count elements of @p unit bytes each, all zero. */
    ZeroedBytes(uint64_t count, uint64_t unit) : _size(count * unit)
    {
        if (unit != 0 && count > UINT64_MAX / unit)
            sim::fatal("storage of %lu x %lu bytes overflows",
                       (unsigned long)count, (unsigned long)unit);
        if (_size == 0)
            return;
        void *p = mmap(nullptr, _size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        if (p == MAP_FAILED)
            sim::fatal("cannot allocate %lu x %lu bytes of storage",
                       (unsigned long)count, (unsigned long)unit);
        _bytes = static_cast<uint8_t *>(p);
    }

    ~ZeroedBytes()
    {
        if (_bytes)
            munmap(_bytes, _size);
    }

    ZeroedBytes(const ZeroedBytes &) = delete;
    ZeroedBytes &operator=(const ZeroedBytes &) = delete;

    uint64_t size() const { return _size; }

    uint8_t &operator[](uint64_t i) { return _bytes[i]; }
    const uint8_t &operator[](uint64_t i) const { return _bytes[i]; }

  private:
    uint8_t *_bytes = nullptr;
    uint64_t _size;
};

} // namespace vg::hw

#endif // VG_HW_ZEROED_HH
