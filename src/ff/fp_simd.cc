#include "src/ff/fp_simd.h"

#include <cctype>
#include <cstdlib>
#include <string>

#include "src/base/cpu_features.h"

namespace nope {
namespace fp_simd {
namespace {

Backend Scalar() { return Backend{nullptr, 1, "scalar"}; }

Backend Select() {
  const Request request = ParseRequest(std::getenv("NOPE_SIMD"));
  if (request == Request::kScalar) {
    return Scalar();
  }
#if defined(NOPE_SIMD_HAVE_AVX512)
  if (request != Request::kAvx2 && CpuHasAvx512F()) {
    return Backend{&MontMulBatchAvx512, 8, "avx512"};
  }
#endif
#if defined(NOPE_SIMD_HAVE_AVX2)
  if (CpuHasAvx2()) {
    return Backend{&MontMulBatchAvx2, 4, "avx2"};
  }
#endif
  return Scalar();
}

}  // namespace

Request ParseRequest(const char* value) {
  std::string mode = value == nullptr ? "" : value;
  for (char& c : mode) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (mode == "off" || mode == "0" || mode == "scalar") {
    return Request::kScalar;
  }
  if (mode == "avx2") {
    return Request::kAvx2;
  }
  if (mode == "avx512") {
    return Request::kAvx512;
  }
  return Request::kAuto;
}

const Backend& ActiveBackend() {
  static const Backend backend = Select();
  return backend;
}

}  // namespace fp_simd
}  // namespace nope
