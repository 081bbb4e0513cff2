// Compile-time vector-ISA selection: AVX2 on x86-64, NEON on aarch64, and
// scalar everywhere else. No kernel branches on it; the macros and
// kIsaName let benches and QueryProfile::simd_isa record which ISA the
// library was compiled for.
//
// Build knobs: -DDSLOG_SIMD_FORCE_SCALAR selects "scalar" on any ISA (the
// CMake option DSLOG_SIMD=OFF sets it; CI runs one job this way). On
// x86-64 the AVX2 selection needs -mavx2, which the top-level CMakeLists
// adds when the compiler supports it.

#ifndef DSLOG_COMMON_SIMD_H_
#define DSLOG_COMMON_SIMD_H_

#if defined(DSLOG_SIMD_FORCE_SCALAR)
// Scalar requested explicitly.
#elif defined(__AVX2__)
#define DSLOG_SIMD_AVX2 1
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define DSLOG_SIMD_NEON 1
#endif

namespace dslog {
namespace simd {

#if defined(DSLOG_SIMD_AVX2)
inline constexpr const char* kIsaName = "avx2";
#elif defined(DSLOG_SIMD_NEON)
inline constexpr const char* kIsaName = "neon";
#else
inline constexpr const char* kIsaName = "scalar";
#endif

}  // namespace simd
}  // namespace dslog

#endif  // DSLOG_COMMON_SIMD_H_
