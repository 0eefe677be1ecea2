// Command-line entry point of the end-to-end benchmark:
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
// Prints a metric table, one "DETERMINISTIC {...}" line (counts that must
// match across runs of one seed), and the result JSON as the last line.
// Exit 0 when every check passed, 1 on a failed check, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "e2e.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const bench_e2e::Workload& w : bench_e2e::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  const bench_e2e::Workload* workload = nullptr;
  bench_e2e::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    double v = 0.0;
    if (flag == "--workload") {
      workload = bench_e2e::find_workload(value);
      if (workload == nullptr) return usage();
    } else if (!parse_double(value, &v)) {
      return usage();
    } else if (flag == "--seed" && v >= 0) {
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (flag == "--seconds" && v > 0) {
      opt.seconds = v;
    } else if (flag == "--trace" && (v == 0 || v == 1)) {
      opt.trace = v == 1;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || argc % 2 == 0) return usage();

  const bench_e2e::Report rep = bench_e2e::run(*workload, opt);
  std::printf("%s", bench_e2e::metric_table(rep).c_str());
  std::printf("DETERMINISTIC %s\n", bench_e2e::deterministic_json(rep).c_str());
  std::printf("%s\n", bench_e2e::result_json(rep).c_str());
  return rep.correct() ? 0 : 1;
}
