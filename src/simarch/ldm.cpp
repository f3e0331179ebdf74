#include "simarch/ldm.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/units.hpp"

namespace swhkm::simarch {

LdmAllocator::LdmAllocator(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {}

void LdmAllocator::alloc(const std::string& name, std::size_t bytes) {
  if (used_ + bytes > capacity_) {
    std::ostringstream msg;
    msg << "LDM overflow allocating '" << name << "' ("
        << util::format_bytes(bytes) << "): " << util::format_bytes(used_)
        << " of " << util::format_bytes(capacity_) << " already used";
    if (!blocks_.empty()) {
      msg << "; live blocks:";
      for (const auto& block : blocks_) {
        msg << " " << block.name << "=" << util::format_bytes(block.bytes);
      }
    }
    throw CapacityError(msg.str());
  }
  blocks_.push_back({name, bytes});
  allocated_.push_back({name, bytes});
  used_ += bytes;
  if (used_ > high_water_) {
    high_water_ = used_;
  }
}

void LdmAllocator::free(const std::string& name) {
  if (blocks_.empty()) {
    throw RuntimeFault("LDM free('" + name + "') with no live blocks");
  }
  if (blocks_.back().name != name) {
    throw RuntimeFault("LDM free('" + name +
                       "') violates stack discipline; top block is '" +
                       blocks_.back().name + "'");
  }
  used_ -= blocks_.back().bytes;
  blocks_.pop_back();
}

void LdmAllocator::reset() {
  blocks_.clear();
  used_ = 0;
}

LdmFootprint LdmAllocator::footprint() const {
  return {capacity_, high_water_, allocated_};
}

std::string LdmAllocator::layout() const {
  std::ostringstream out;
  out << util::format_bytes(used_) << "/" << util::format_bytes(capacity_)
      << " used (peak " << util::format_bytes(high_water_) << ")";
  for (const auto& block : blocks_) {
    out << "\n  " << block.name << ": " << util::format_bytes(block.bytes);
  }
  return out.str();
}

}  // namespace swhkm::simarch
