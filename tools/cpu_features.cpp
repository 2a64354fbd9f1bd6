// cpu_features: print the detected host CPU capability mask and the kernel
// variant the runtime dispatch layer (DESIGN.md §11) resolved for each hot
// kernel slot. The CI artifact jobs log this so every run records which
// code paths actually executed; it is also the first triage step for any
// "is this binary using AVX-512?" question. Honors SMORE_KERNEL, so
//   SMORE_KERNEL=sse2 cpu_features
// shows exactly what a forced tier would run.

#include <cstdio>

#include "hdc/dispatch.hpp"

int main() {
  const auto& d = smore::kern::dispatch();

  std::printf("cpu features : %s\n", smore::to_string(d.features).c_str());
  std::printf("dispatch tier: %s%s%s\n", smore::kern::tier_name(d.tier),
              d.forced ? " (forced via SMORE_KERNEL)" : "",
              d.clamped ? " (CLAMPED: requested tier not executable here)"
                        : "");
  std::printf("build        : fat binary (portable baseline + "
              "runtime-dispatched kernels)\n");
  std::printf("compiled-in tiers:");
  for (int t = 0; t < smore::kern::kNumTiers; ++t) {
    const auto tier = static_cast<smore::kern::IsaTier>(t);
    if (!smore::kern::tier_compiled(tier)) continue;
    std::printf(" %s%s", smore::kern::tier_name(tier),
                smore::kern::tier_supported(tier) ? "" : "(unsupported)");
  }
  std::printf("\n\n%-20s %s\n", "kernel", "variant");
  for (std::size_t k = 0; k < smore::kern::kNumKernels; ++k) {
    const auto kernel = static_cast<smore::kern::Kernel>(k);
    std::printf("%-20s %s\n", smore::kern::kernel_name(kernel),
                d.kernel_variant[k] ? d.kernel_variant[k] : "?");
  }
  return 0;
}
