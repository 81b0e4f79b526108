#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>

#include "base/bigint.h"
#include "base/debug.h"
#include "base/faults.h"
#include "base/rational.h"

namespace xicc {

/// Per-thread tallies of the two-tier exact arithmetic (see Num below).
/// `promotions` counts small→big transitions forced by 64-bit overflow;
/// `demotions` counts big results that fit back into the small word pair.
/// The ratio promotions/small_ops is the promotion rate reported by the
/// benches — near zero on the paper's cardinality encodings, whose
/// coefficients are unit-scale until Gomory denominators pile up.
struct NumCounters {
  uint64_t small_ops = 0;
  uint64_t big_ops = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
};

inline thread_local NumCounters g_num_counters;
inline NumCounters& ThisThreadNumCounters() { return g_num_counters; }

namespace internal {

/// The machine word of Num's small tier. Exported so structure-of-arrays
/// fast lanes (the sparse simplex kernel keeps per-row numerator/denominator
/// word arrays) can name the coefficient word without spelling a raw integer
/// type — all arithmetic on Words MUST go through the overflow-checked
/// SmallAdd/SmallMul primitives below, never bare operators.
using Word = int64_t;

/// |v| as an unsigned word; well-defined for INT64_MIN too.
inline uint64_t Mag64(int64_t v) {
  return v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
}

inline uint64_t Gcd64(uint64_t a, uint64_t b) {
  while (b != 0) {
    uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// a/b + c/d over canonical small words (b, d > 0). Returns false when any
/// intermediate or the canonical result leaves the small domain; *on/*od are
/// then unspecified. Uses Knuth's reduced-gcd scheme so the only reduction
/// needed is against g = gcd(b, d).
inline bool SmallAdd(int64_t a, int64_t b, int64_t c, int64_t d, int64_t* on,
                     int64_t* od) {
  // Integer shortcut: with b = d = 1 the general path below reduces to this
  // sum, and it fails exactly where that path does.
  if ((b | d) == 1) {
    int64_t t;
    if (__builtin_add_overflow(a, c, &t) || t == INT64_MIN) return false;
    *on = t;
    *od = 1;
    return true;
  }
  const int64_t g = static_cast<int64_t>(
      Gcd64(static_cast<uint64_t>(b), static_cast<uint64_t>(d)));
  const int64_t b1 = b / g;
  const int64_t d1 = d / g;
  int64_t t1, t2, t;
  if (__builtin_mul_overflow(a, d1, &t1)) return false;
  if (__builtin_mul_overflow(c, b1, &t2)) return false;
  if (__builtin_add_overflow(t1, t2, &t)) return false;
  if (t == 0) {
    *on = 0;
    *od = 1;
    return true;
  }
  const int64_t g2 = static_cast<int64_t>(
      Gcd64(Mag64(t), static_cast<uint64_t>(g)));
  const int64_t tn = t / g2;
  if (tn == INT64_MIN) return false;
  int64_t den;
  if (__builtin_mul_overflow(b1, d / g2, &den)) return false;
  *on = tn;
  *od = den;
  return true;
}

/// (a/b) · (c/d) over canonical small words; cross-reduction keeps the
/// result canonical without a final gcd.
inline bool SmallMul(int64_t a, int64_t b, int64_t c, int64_t d, int64_t* on,
                     int64_t* od) {
  // Integer shortcut, failing exactly where the general path does.
  if ((b | d) == 1) {
    int64_t n;
    if (__builtin_mul_overflow(a, c, &n) || n == INT64_MIN) return false;
    *on = n;
    *od = 1;
    return true;
  }
  if (a == 0 || c == 0) {
    *on = 0;
    *od = 1;
    return true;
  }
  const int64_t g1 =
      static_cast<int64_t>(Gcd64(Mag64(a), static_cast<uint64_t>(d)));
  const int64_t g2 =
      static_cast<int64_t>(Gcd64(Mag64(c), static_cast<uint64_t>(b)));
  const int64_t a1 = a / g1;
  const int64_t c1 = c / g2;
  const int64_t b1 = b / g2;
  const int64_t d1 = d / g1;
  int64_t n, den;
  if (__builtin_mul_overflow(a1, c1, &n)) return false;
  if (n == INT64_MIN) return false;
  if (__builtin_mul_overflow(b1, d1, &den)) return false;
  *on = n;
  *od = den;
  return true;
}

}  // namespace internal

// Per-operation verification for XICC_AUDIT builds: every Num operation is
// recomputed in pure BigInt-backed Rational arithmetic and compared. This is
// the audit strategy for the small tier — the overflow intrinsics guard the
// representation, the recomputation guards the mathematics.
#if XICC_AUDIT_ENABLED
#define XICC_NUM_AUDIT_PREP(expr) const ::xicc::Rational xicc_num_expect_ = (expr)
#define XICC_NUM_AUDIT_CHECK() \
  XICC_DCHECK(::xicc::Rational::Compare(ToRational(), xicc_num_expect_) == 0)
#else
#define XICC_NUM_AUDIT_PREP(expr) \
  do {                            \
  } while (0)
#define XICC_NUM_AUDIT_CHECK() \
  do {                         \
  } while (0)
#endif

/// Two-tier exact rational: the workhorse number type of the ILP substrate.
///
/// Small tier (`d_ > 0`): the value is n_/d_ packed in two native words,
/// canonical — gcd(|n_|, d_) == 1, zero is 0/1, and n_ ≠ INT64_MIN (so
/// negation and |·| never overflow). All arithmetic runs through
/// __builtin_*_overflow intrinsics and touches no allocator.
///
/// Big tier (`d_ == 0`): a heap Rational (BigInt-backed). Any small
/// operation whose intermediate or result leaves the 64-bit domain promotes
/// losslessly; big results that fit two words demote back. Promotion and
/// demotion are invisible to callers — Num has one value semantics, the
/// tiers are a representation detail audited in XICC_AUDIT builds by
/// recomputing every operation in pure Rational arithmetic.
///
/// The exactness invariant of the paper's NP encodings (Thm 4.7) lives
/// here: no operation rounds, both tiers are always in canonical form.
class Num {
 public:
  Num() : n_(0), d_(1) {}
  Num(int64_t v) {  // NOLINT(google-explicit-constructor): numeric interop.
    if (v == INT64_MIN) {
      InitBig(Rational(BigInt(v)));
    } else {
      n_ = v;
      d_ = 1;
    }
  }
  Num(int v) : Num(static_cast<int64_t>(v)) {}  // NOLINT
  Num(BigInt v);                                // NOLINT: see LinearExpr.
  /// `den` must be nonzero; the value is reduced to canonical form.
  Num(BigInt num, BigInt den);
  explicit Num(const Rational& r);

  Num(const Num& o) : d_(o.d_) {
    if (o.is_small()) {
      n_ = o.n_;
    } else {
      big_ = new Rational(*o.big_);
    }
  }
  Num(Num&& o) noexcept : d_(o.d_) {
    if (o.is_small()) {
      n_ = o.n_;
    } else {
      big_ = o.big_;
      o.n_ = 0;
      o.d_ = 1;
    }
  }
  Num& operator=(const Num& o) {
    if (this == &o) return *this;
    if (!is_small()) delete big_;
    d_ = o.d_;
    if (o.is_small()) {
      n_ = o.n_;
    } else {
      big_ = new Rational(*o.big_);
    }
    return *this;
  }
  Num& operator=(Num&& o) noexcept {
    if (this == &o) return *this;
    if (!is_small()) delete big_;
    d_ = o.d_;
    if (o.is_small()) {
      n_ = o.n_;
    } else {
      big_ = o.big_;
      o.n_ = 0;
      o.d_ = 1;
    }
    return *this;
  }
  ~Num() {
    if (!is_small()) delete big_;
  }

  /// True when the value lives in the packed small tier.
  bool is_small() const { return d_ != 0; }

  bool is_zero() const { return is_small() ? n_ == 0 : big_->is_zero(); }
  bool is_integer() const {
    return is_small() ? d_ == 1 : big_->is_integer();
  }
  int sign() const {
    if (is_small()) return (n_ > 0) - (n_ < 0);
    return big_->sign();
  }

  /// Numerator / denominator of the canonical form, by value (the small
  /// tier has no BigInt to reference).
  BigInt num() const {
    return is_small() ? BigInt(n_) : big_->num();
  }
  BigInt den() const {
    return is_small() ? BigInt(d_) : big_->den();
  }

  Rational ToRational() const {
    if (is_small()) return Rational(BigInt(n_), BigInt(d_));
    return *big_;
  }

  /// Largest integer ≤ this / smallest integer ≥ this, as a Num.
  Num Floor() const;
  Num Ceil() const;

  Num operator-() const {
    if (is_small()) return Num(-n_, d_, RawTag());
    Num out;
    out.InitBig(-*big_);
    return out;
  }

  Num& operator+=(const Num& rhs) {
    XICC_NUM_AUDIT_PREP(ToRational() + rhs.ToRational());
    // The fault probe (fault builds only) forces the slow promote/demote
    // route: the slow path recomputes the exact value, so injected
    // "overflow" stresses the representation without touching verdicts.
    if (is_small() && rhs.is_small() && !XICC_FAULT_FIRES(kNumPromote)) {
      int64_t n, d;
      if (internal::SmallAdd(n_, d_, rhs.n_, rhs.d_, &n, &d)) {
        n_ = n;
        d_ = d;
        ++ThisThreadNumCounters().small_ops;
        XICC_NUM_AUDIT_CHECK();
        return *this;
      }
    }
    AddSlow(rhs);
    XICC_NUM_AUDIT_CHECK();
    return *this;
  }

  Num& operator-=(const Num& rhs) {
    XICC_NUM_AUDIT_PREP(ToRational() - rhs.ToRational());
    if (is_small() && rhs.is_small() && !XICC_FAULT_FIRES(kNumPromote)) {
      // rhs.n_ ≠ INT64_MIN by the small-tier invariant, so −rhs is safe.
      int64_t n, d;
      if (internal::SmallAdd(n_, d_, -rhs.n_, rhs.d_, &n, &d)) {
        n_ = n;
        d_ = d;
        ++ThisThreadNumCounters().small_ops;
        XICC_NUM_AUDIT_CHECK();
        return *this;
      }
    }
    SubSlow(rhs);
    XICC_NUM_AUDIT_CHECK();
    return *this;
  }

  Num& operator*=(const Num& rhs) {
    XICC_NUM_AUDIT_PREP(ToRational() * rhs.ToRational());
    if (is_small() && rhs.is_small() && !XICC_FAULT_FIRES(kNumPromote)) {
      int64_t n, d;
      if (internal::SmallMul(n_, d_, rhs.n_, rhs.d_, &n, &d)) {
        n_ = n;
        d_ = d;
        ++ThisThreadNumCounters().small_ops;
        XICC_NUM_AUDIT_CHECK();
        return *this;
      }
    }
    MulSlow(rhs);
    XICC_NUM_AUDIT_CHECK();
    return *this;
  }

  /// rhs must be nonzero.
  Num& operator/=(const Num& rhs) {
    XICC_NUM_AUDIT_PREP(ToRational() / rhs.ToRational());
    if (is_small() && rhs.is_small() && !XICC_FAULT_FIRES(kNumPromote)) {
      // Reciprocal of c/d is d/c with the sign moved to the numerator;
      // d > 0 ≤ INT64_MAX so −d never overflows, c ≠ INT64_MIN likewise.
      const int64_t rn = rhs.n_ < 0 ? -rhs.d_ : rhs.d_;
      const int64_t rd = rhs.n_ < 0 ? -rhs.n_ : rhs.n_;
      int64_t n, d;
      if (internal::SmallMul(n_, d_, rn, rd, &n, &d)) {
        n_ = n;
        d_ = d;
        ++ThisThreadNumCounters().small_ops;
        XICC_NUM_AUDIT_CHECK();
        return *this;
      }
    }
    DivSlow(rhs);
    XICC_NUM_AUDIT_CHECK();
    return *this;
  }

  friend Num operator+(Num lhs, const Num& rhs) { return lhs += rhs; }
  friend Num operator-(Num lhs, const Num& rhs) { return lhs -= rhs; }
  friend Num operator*(Num lhs, const Num& rhs) { return lhs *= rhs; }
  friend Num operator/(Num lhs, const Num& rhs) { return lhs /= rhs; }

  /// Three-way comparison; exact in all tier combinations (the small-small
  /// cross product fits __int128, never the 64-bit words).
  static int Compare(const Num& lhs, const Num& rhs) {
    if (lhs.is_small() && rhs.is_small()) {
      const __int128 l = static_cast<__int128>(lhs.n_) * rhs.d_;
      const __int128 r = static_cast<__int128>(rhs.n_) * lhs.d_;
      return (l > r) - (l < r);
    }
    return CompareSlow(lhs, rhs);
  }

  friend bool operator==(const Num& a, const Num& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const Num& a, const Num& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<(const Num& a, const Num& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const Num& a, const Num& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const Num& a, const Num& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const Num& a, const Num& b) {
    return Compare(a, b) >= 0;
  }

  /// "7" for integers, "7/3" otherwise — same grammar as Rational.
  std::string ToString() const;

  /// Serialization access (core/artifact): when small, stores the canonical
  /// (numerator, denominator) words and returns true; big-tier values
  /// return false and serialize via ToString.
  bool SmallWords(int64_t* n, int64_t* d) const {
    if (!is_small()) return false;
    *n = n_;
    *d = d_;
    return true;
  }

  /// Trusted deserialization entry (core/artifact): (n, d) must be the
  /// canonical small-tier words previously produced by SmallWords — d > 0,
  /// gcd(|n|, d) == 1, n != INT64_MIN. The caller validates the cheap word
  /// invariants before calling (artifact checksums make a violation
  /// unreachable from disk corruption); full canonicality is re-audited in
  /// XICC_AUDIT builds only, keeping warm loads free of gcd work.
  static Num FromCanonicalWords(int64_t n, int64_t d) {
    Num out(n, d, RawTag());
    XICC_DCHECK(out.RepOk());
    return out;
  }

  /// The exact route of -=, *= and /= on its own: what those operators run
  /// when an operand is big, the small attempt overflows or kNumPromote
  /// fires. A word lane that makes its own small attempt (consulting the
  /// probe where the operator would) finishes a cell here, so values and
  /// NumCounters come out as if the operator had run.
  void SubSlow(const Num& rhs);
  void MulSlow(const Num& rhs);
  void DivSlow(const Num& rhs);

  /// Representation invariant, for the XICC_AUDIT tableau auditor: the
  /// small tier is canonical and excludes INT64_MIN; the big tier holds
  /// only values that genuinely need it (a demotable big is a rep bug).
  bool RepOk() const;

 private:
  struct RawTag {};
  /// Trusted small constructor: (n, d) already canonical.
  Num(int64_t n, int64_t d, RawTag) : n_(n), d_(d) {}

  void InitBig(Rational r) { big_ = new Rational(std::move(r)); d_ = 0; }

  /// Stores `r`, choosing the tier; counts the promotion/demotion edge
  /// relative to `inputs_small`.
  void SetFromRational(Rational r, bool inputs_small);

  void AddSlow(const Num& rhs);
  static int CompareSlow(const Num& lhs, const Num& rhs);

  union {
    int64_t n_;      ///< Small tier: numerator.
    Rational* big_;  ///< Big tier: owned heap value.
  };
  int64_t d_;  ///< Small tier: denominator > 0. Big tier: 0.
};

inline std::ostream& operator<<(std::ostream& os, const Num& v) {
  return os << v.ToString();
}

}  // namespace xicc
