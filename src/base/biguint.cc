#include "src/base/biguint.h"

#include <algorithm>
#include <stdexcept>

namespace nope {

using uint128 = unsigned __int128;

BigUInt::BigUInt(uint64_t v) {
  if (v != 0) {
    limbs_.push_back(v);
  }
}

void BigUInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigUInt BigUInt::FromHex(const std::string& hex_in) {
  std::string hex = hex_in;
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex = hex.substr(2);
  }
  if (hex.size() % 2 != 0) {
    hex = "0" + hex;
  }
  return FromBytes(DecodeHex(hex));
}

BigUInt BigUInt::FromDecimal(const std::string& dec) {
  BigUInt out;
  BigUInt ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("invalid decimal digit");
    }
    out = out * ten + BigUInt(static_cast<uint64_t>(c - '0'));
  }
  return out;
}

BigUInt BigUInt::FromBytes(const Bytes& bytes) {
  BigUInt out;
  size_t nlimbs = (bytes.size() + 7) / 8;
  out.limbs_.assign(nlimbs, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    // bytes are big-endian; byte i contributes to bit position from the top.
    size_t byte_from_lsb = bytes.size() - 1 - i;
    out.limbs_[byte_from_lsb / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (byte_from_lsb % 8));
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::FromLimbsLE(const uint64_t* limbs, size_t n) {
  BigUInt out;
  out.limbs_.assign(limbs, limbs + n);
  out.Normalize();
  return out;
}

BigUInt BigUInt::Random(Rng* rng, size_t bits) {
  if (bits == 0) {
    return BigUInt();
  }
  BigUInt out;
  size_t nlimbs = (bits + 63) / 64;
  out.limbs_.resize(nlimbs);
  for (auto& l : out.limbs_) {
    l = rng->NextU64();
  }
  size_t top_bits = bits - (nlimbs - 1) * 64;
  if (top_bits < 64) {
    out.limbs_.back() &= (uint64_t{1} << top_bits) - 1;
  }
  out.limbs_.back() |= uint64_t{1} << (top_bits - 1);
  out.Normalize();
  return out;
}

BigUInt BigUInt::RandomBelow(Rng* rng, const BigUInt& bound) {
  if (bound.IsZero()) {
    throw std::invalid_argument("RandomBelow bound must be non-zero");
  }
  size_t bits = bound.BitLength();
  size_t nlimbs = (bits + 63) / 64;
  while (true) {
    BigUInt out;
    out.limbs_.resize(nlimbs);
    for (auto& l : out.limbs_) {
      l = rng->NextU64();
    }
    size_t top_bits = bits - (nlimbs - 1) * 64;
    if (top_bits < 64) {
      out.limbs_.back() &= (uint64_t{1} << top_bits) - 1;
    }
    out.Normalize();
    if (out < bound) {
      return out;
    }
  }
}

size_t BigUInt::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  uint64_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::Bit(size_t i) const {
  size_t limb = i / 64;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigUInt::Compare(const BigUInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUInt BigUInt::operator+(const BigUInt& o) const {
  BigUInt out;
  size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint128 carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint128 sum = carry;
    if (i < limbs_.size()) {
      sum += limbs_[i];
    }
    if (i < o.limbs_.size()) {
      sum += o.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  out.limbs_[n] = static_cast<uint64_t>(carry);
  out.Normalize();
  return out;
}

BigUInt BigUInt::operator-(const BigUInt& o) const {
  if (*this < o) {
    throw std::underflow_error("BigUInt subtraction underflow");
  }
  BigUInt out;
  out.limbs_.resize(limbs_.size(), 0);
  uint128 borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint128 rhs = (i < o.limbs_.size() ? o.limbs_[i] : 0) + borrow;
    uint128 lhs = limbs_[i];
    if (lhs >= rhs) {
      out.limbs_[i] = static_cast<uint64_t>(lhs - rhs);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<uint64_t>((static_cast<uint128>(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::operator*(const BigUInt& o) const {
  if (IsZero() || o.IsZero()) {
    return BigUInt();
  }
  BigUInt out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint128 carry = 0;
    for (size_t j = 0; j < o.limbs_.size(); ++j) {
      uint128 cur = static_cast<uint128>(limbs_[i]) * o.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    size_t k = i + o.limbs_.size();
    while (carry != 0) {
      uint128 cur = static_cast<uint128>(out.limbs_[k]) + carry;
      out.limbs_[k] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::operator<<(size_t bits) const {
  if (IsZero()) {
    return BigUInt();
  }
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::operator>>(size_t bits) const {
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) {
    return BigUInt();
  }
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift == 0 ? limbs_[i + limb_shift] : (limbs_[i + limb_shift] >> bit_shift);
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

BigUInt::DivModResult BigUInt::DivMod(const BigUInt& divisor) const {
  if (divisor.IsZero()) {
    throw std::domain_error("BigUInt division by zero");
  }
  if (*this < divisor) {
    return {BigUInt(), *this};
  }
  if (divisor.limbs_.size() == 1) {
    // Fast single-limb path.
    BigUInt q;
    q.limbs_.resize(limbs_.size());
    uint64_t d = divisor.limbs_[0];
    uint128 rem = 0;
    for (size_t i = limbs_.size(); i-- > 0;) {
      uint128 cur = (rem << 64) | limbs_[i];
      q.limbs_[i] = static_cast<uint64_t>(cur / d);
      rem = cur % d;
    }
    q.Normalize();
    return {q, BigUInt(static_cast<uint64_t>(rem))};
  }

  // Knuth TAOCP vol. 2, Algorithm D. Normalize so divisor's top bit is set.
  size_t shift = 64 - (divisor.BitLength() % 64);
  if (shift == 64) {
    shift = 0;
  }
  BigUInt u = *this << shift;
  BigUInt v = divisor << shift;
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m+n+1 limbs.

  BigUInt q;
  q.limbs_.assign(m + 1, 0);
  uint64_t vtop = v.limbs_[n - 1];
  uint64_t vsecond = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    uint128 numerator = (static_cast<uint128>(u.limbs_[j + n]) << 64) | u.limbs_[j + n - 1];
    uint128 qhat = numerator / vtop;
    uint128 rhat = numerator % vtop;
    while (qhat >> 64 != 0 ||
           qhat * vsecond > ((rhat << 64) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += vtop;
      if (rhat >> 64 != 0) {
        break;
      }
    }
    // Multiply-and-subtract: u[j..j+n] -= qhat * v.
    uint128 borrow = 0;
    uint128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint128 p = qhat * v.limbs_[i] + carry;
      carry = p >> 64;
      uint64_t p_lo = static_cast<uint64_t>(p);
      uint64_t u_limb = u.limbs_[j + i];
      uint64_t sub = u_limb - p_lo - static_cast<uint64_t>(borrow);
      borrow = (static_cast<uint128>(u_limb) < static_cast<uint128>(p_lo) + borrow) ? 1 : 0;
      u.limbs_[j + i] = sub;
    }
    uint64_t top_before = u.limbs_[j + n];
    uint64_t top_sub = top_before - static_cast<uint64_t>(carry) - static_cast<uint64_t>(borrow);
    bool negative = static_cast<uint128>(top_before) < carry + borrow;
    u.limbs_[j + n] = top_sub;

    if (negative) {
      // qhat was one too large; add back.
      --qhat;
      uint128 carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint128 sum = static_cast<uint128>(u.limbs_[j + i]) + v.limbs_[i] + carry2;
        u.limbs_[j + i] = static_cast<uint64_t>(sum);
        carry2 = sum >> 64;
      }
      u.limbs_[j + n] += static_cast<uint64_t>(carry2);
    }
    q.limbs_[j] = static_cast<uint64_t>(qhat);
  }

  q.Normalize();
  u.limbs_.resize(n);
  u.Normalize();
  return {q, u >> shift};
}

BigUInt BigUInt::AddMod(const BigUInt& o, const BigUInt& m) const {
  return ((*this % m) + (o % m)) % m;
}

BigUInt BigUInt::SubMod(const BigUInt& o, const BigUInt& m) const {
  BigUInt a = *this % m;
  BigUInt b = o % m;
  if (a >= b) {
    return a - b;
  }
  return a + m - b;
}

BigUInt BigUInt::MulMod(const BigUInt& o, const BigUInt& m) const {
  return (*this * o) % m;
}

BigUInt BigUInt::PowMod(const BigUInt& exp, const BigUInt& m) const {
  if (m.IsZero()) {
    throw std::domain_error("PowMod modulus must be non-zero");
  }
  if (m == BigUInt(1)) {
    return BigUInt();
  }
  BigUInt base = *this % m;
  BigUInt result(1);
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = result.MulMod(result, m);
    if (exp.Bit(i)) {
      result = result.MulMod(base, m);
    }
  }
  return result;
}

BigUInt BigUInt::InvMod(const BigUInt& m) const {
  // Extended Euclid over signed intermediates represented as (value, sign).
  BigUInt r0 = m;
  BigUInt r1 = *this % m;
  BigUInt t0;  // coefficient of m, unused
  BigUInt t1(1);
  bool t0_neg = false;
  bool t1_neg = false;
  while (!r1.IsZero()) {
    DivModResult dm = r0.DivMod(r1);
    // t2 = t0 - q * t1 (signed).
    BigUInt qt = dm.quotient * t1;
    BigUInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // t0 and q*t1 have the same sign: subtract magnitudes.
      if (t0 >= qt) {
        t2 = t0 - qt;
        t2_neg = t0_neg;
      } else {
        t2 = qt - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt;
      t2_neg = t0_neg;
    }
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
    r0 = r1;
    r1 = dm.remainder;
  }
  if (r0 != BigUInt(1)) {
    throw std::domain_error("InvMod: operand not invertible");
  }
  if (t0_neg) {
    return m - (t0 % m);
  }
  return t0 % m;
}

BigUInt BigUInt::Gcd(BigUInt a, BigUInt b) {
  while (!b.IsZero()) {
    BigUInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

std::vector<int8_t> BigUInt::Naf() const {
  std::vector<int8_t> digits;
  BigUInt k = *this;
  while (!k.IsZero()) {
    int8_t d = 0;
    if (k.IsOdd()) {
      // k = 1 (mod 4) takes digit 1, k = 3 (mod 4) takes -1, so that the
      // next bit of k - d is zero.
      d = (k.LowU64() & 3) == 1 ? 1 : -1;
      k = d == 1 ? k - BigUInt(1) : k + BigUInt(1);
    }
    digits.push_back(d);
    k = k >> 1;
  }
  return digits;
}

BigUInt::HalfGcdResult BigUInt::HalfGcd(const BigUInt& n, const BigUInt& k) {
  // Run Euclid on (n, k) tracking r_i = s_i*n + t_i*k; stop when r < 2^(bits/2).
  size_t half_bits = (n.BitLength() + 1) / 2;
  BigUInt threshold = BigUInt(1) << half_bits;

  BigUInt r0 = n;
  BigUInt r1 = k % n;
  BigUInt t0;
  bool t0_neg = false;
  BigUInt t1(1);
  bool t1_neg = false;

  while (r1 >= threshold) {
    DivModResult dm = r0.DivMod(r1);
    BigUInt qt = dm.quotient * t1;
    BigUInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt) {
        t2 = t0 - qt;
        t2_neg = t0_neg;
      } else {
        t2 = qt - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt;
      t2_neg = t0_neg;
    }
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
    r0 = r1;
    r1 = dm.remainder;
  }

  HalfGcdResult out;
  out.v = t1;
  out.v_negated = t1_neg;
  out.w = r1;
  out.w_negated = false;
  // Invariant (up to sign bookkeeping): k * v == +-w (mod n).
  return out;
}

std::pair<BigUInt::ExtEuclidRow, BigUInt::ExtEuclidRow> BigUInt::HalfGcdRows(
    const BigUInt& n, const BigUInt& k) {
  // Identical walk to HalfGcd, but both rows at the threshold crossing are
  // returned: on exit (r0, t0) is the last row with r0 >= 2^ceil(bits/2) and
  // (r1, t1) the first below it. Each row keeps r_i == +-t_i * k (mod n).
  size_t half_bits = (n.BitLength() + 1) / 2;
  BigUInt threshold = BigUInt(1) << half_bits;

  BigUInt r0 = n;
  BigUInt r1 = k % n;
  BigUInt t0;
  bool t0_neg = false;
  BigUInt t1(1);
  bool t1_neg = false;

  while (r1 >= threshold) {
    DivModResult dm = r0.DivMod(r1);
    BigUInt qt = dm.quotient * t1;
    BigUInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt) {
        t2 = t0 - qt;
        t2_neg = t0_neg;
      } else {
        t2 = qt - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt;
      t2_neg = t0_neg;
    }
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
    r0 = r1;
    r1 = dm.remainder;
  }

  return {ExtEuclidRow{r0, t0, t0_neg}, ExtEuclidRow{r1, t1, t1_neg}};
}

Bytes BigUInt::ToBytes(size_t width) const {
  size_t needed = (BitLength() + 7) / 8;
  if (width == 0) {
    width = std::max<size_t>(needed, 1);
  }
  if (needed > width) {
    throw std::length_error("BigUInt does not fit requested width");
  }
  Bytes out(width, 0);
  for (size_t i = 0; i < width; ++i) {
    size_t byte_from_lsb = width - 1 - i;
    size_t limb = byte_from_lsb / 8;
    if (limb < limbs_.size()) {
      out[i] = static_cast<uint8_t>(limbs_[limb] >> (8 * (byte_from_lsb % 8)));
    }
  }
  return out;
}

std::string BigUInt::ToHex() const {
  if (IsZero()) {
    return "0";
  }
  std::string s = EncodeHex(ToBytes());
  size_t first = s.find_first_not_of('0');
  return s.substr(first);
}

std::string BigUInt::ToDecimal() const {
  if (IsZero()) {
    return "0";
  }
  std::string out;
  BigUInt v = *this;
  BigUInt ten(10);
  while (!v.IsZero()) {
    DivModResult dm = v.DivMod(ten);
    out.push_back(static_cast<char>('0' + dm.remainder.LowU64()));
    v = dm.quotient;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace nope
