// Runtime CPU-capability detection for the SIMD field-arithmetic dispatch
// (src/ff/fp_simd.*). Each predicate answers "does the running CPU support
// this extension", independent of whether the matching kernel was compiled
// in; the dispatch layer combines both conditions plus the NOPE_SIMD
// environment override.
#ifndef SRC_BASE_CPU_FEATURES_H_
#define SRC_BASE_CPU_FEATURES_H_

namespace nope {

// True when the running CPU supports the extension. Always false on
// architectures where the extension does not exist.
bool CpuHasAvx2();
bool CpuHasAvx512F();

}  // namespace nope

#endif  // SRC_BASE_CPU_FEATURES_H_
