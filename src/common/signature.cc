#include "common/signature.h"

#include <algorithm>

#include "common/check.h"
#include "common/signature_ops.h"

namespace sgtree {

Signature Signature::FromItems(std::span<const uint32_t> items,
                               uint32_t num_bits) {
  Signature sig(num_bits);
  for (uint32_t item : items) {
    SGTREE_ASSERT(item < num_bits);
    sig.Set(item);
  }
  return sig;
}

void Signature::Clear() { std::fill(words_.begin(), words_.end(), 0); }

uint32_t Signature::Area() const { return sig::Area(*this); }

bool Signature::Empty() const { return sig::Empty(*this); }

void Signature::IntersectWith(const Signature& other) {
  SGTREE_DCHECK(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

bool Signature::Contains(const Signature& other) const {
  return sig::Contains(*this, other);
}

uint32_t Signature::IntersectCount(const Signature& a, const Signature& b) {
  return sig::IntersectCount(a, b);
}

uint32_t Signature::AndNotCount(const Signature& a, const Signature& b) {
  return sig::AndNotCount(a, b);
}

uint32_t Signature::XorCount(const Signature& a, const Signature& b) {
  return sig::XorCount(a, b);
}

std::vector<uint32_t> Signature::ToItems() const { return sig::Items(*this); }

std::string Signature::ToString() const {
  std::string out;
  out.reserve(num_bits_);
  for (uint32_t i = 0; i < num_bits_; ++i) out.push_back(Test(i) ? '1' : '0');
  return out;
}

size_t SignatureHash::operator()(const Signature& s) const {
  // FNV-1a over the backing words.
  uint64_t hash = 14695981039346656037ull;
  for (uint64_t w : s.words()) {
    hash ^= w;
    hash *= 1099511628211ull;
  }
  return static_cast<size_t>(hash);
}

}  // namespace sgtree
