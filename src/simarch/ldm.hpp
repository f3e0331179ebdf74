#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace swhkm::simarch {

/// One named scratchpad buffer and its size.
struct LdmBuffer {
  std::string name;
  std::size_t bytes = 0;
};

/// What one CPE's scratchpad held: its capacity, the peak of what was live
/// at once, and every buffer allocated, in allocation order.
struct LdmFootprint {
  std::size_t capacity_bytes = 0;
  std::size_t high_water_bytes = 0;
  std::vector<LdmBuffer> buffers;
};

/// Simulated Local Directive Memory (scratchpad) of one CPE.
///
/// The real SW26010 gives each CPE 64 KiB of software-managed memory and no
/// data cache: anything a kernel touches must have been explicitly placed.
/// core::allocate_ldm sizes every LDM-resident buffer of an engine run
/// through this class, so exceeding the paper's constraints (C1..C3'') is
/// a hard runtime error (CapacityError) rather than a silent fiction.
///
/// Allocation is a bump pointer with named blocks; free() only releases the
/// most recent block(s) (stack discipline), which matches how scratchpad
/// kernels are actually written and keeps the model trivially correct.
class LdmAllocator {
 public:
  explicit LdmAllocator(std::size_t capacity_bytes);

  /// Reserve `bytes` under `name`. Throws CapacityError when the scratchpad
  /// would overflow; the message names every live block to make planner
  /// bugs diagnosable.
  void alloc(const std::string& name, std::size_t bytes);

  /// Release the most recent allocation; it must be named `name`
  /// (stack discipline guard). Throws RuntimeFault on mismatch.
  void free(const std::string& name);

  /// Release every live block (footprint() still lists them).
  void reset();

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  std::size_t remaining() const { return capacity_ - used_; }
  std::size_t high_water() const { return high_water_; }
  std::size_t live_blocks() const { return blocks_.size(); }

  /// Human-readable listing of live blocks, for diagnostics.
  std::string layout() const;

  /// Capacity, high-water and every allocation made so far, freed or not.
  LdmFootprint footprint() const;

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  std::vector<LdmBuffer> blocks_;
  std::vector<LdmBuffer> allocated_;
};

}  // namespace swhkm::simarch
