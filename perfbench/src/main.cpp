/**
 * @file
 * Wall-clock serving benchmark driver.
 *
 * Usage: serving_bench --workload <chat_churn|rag_longdoc|remote_fanout>
 *                      [--seed N] [--seconds S] [--trace 0|1]
 *                      [--work-dir DIR] [--worker-bin PATH]
 *                      [--trace-out FILE] [--tamper]
 *
 * Prints a report object (phase accounting, provenance, result hash,
 * output check), then, as the last line, the result object:
 * {"correct", "attempted", "failed", "metrics"}. Untraced runs carry
 * the end-to-end metrics; traced runs (--trace 1) the per-layer ones.
 * Exits nonzero when a sampled result differs from a freshly bound
 * backend's answer (--tamper corrupts one sample to prove it does).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "kernels/kernels.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace perfbench {

Json
provenanceJson(std::size_t lanes, std::size_t workers)
{
    Json json;
    json.integer("nproc", std::thread::hardware_concurrency())
#if defined(__clang__)
        .text("compiler", std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
        .text("compiler", std::string("gcc ") + __VERSION__)
#else
        .text("compiler", "unknown")
#endif
        .text("kernel_isa", a3::kernelIsaName(a3::activeKernels().isa))
        .integer("engine_lanes", lanes)
        .integer("workers", workers);
    return json;
}

}  // namespace perfbench

namespace {

using perfbench::Options;

Options
parse(int argc, char **argv)
{
    Options options;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            a3::fatal("perfbench: ", argv[i], " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            options.workload = value(i);
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value(i));
        } else if (arg == "--trace") {
            options.trace = std::string(value(i)) == "1";
        } else if (arg == "--work-dir") {
            options.workDir = value(i);
        } else if (arg == "--worker-bin") {
            options.workerBin = value(i);
        } else if (arg == "--trace-out") {
            options.traceOut = value(i);
        } else if (arg == "--tamper") {
            options.tamper = true;
        } else {
            a3::fatal("perfbench: unknown argument \"", arg, "\"");
        }
    }
    if (!perfbench::isLocalWorkload(options.workload) &&
        !perfbench::isRemoteWorkload(options.workload))
        a3::fatal("perfbench: unknown workload \"", options.workload, "\"");
    if (!(options.seconds > 0.0 && options.seconds <= 600.0))
        a3::fatal("perfbench: --seconds must be in (0, 600]");
    if (options.workDir.empty())
        a3::fatal("perfbench: --work-dir is required");
    return options;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    perfbench::makeDirs(options.workDir);
    perfbench::RunOutcome outcome =
        perfbench::isRemoteWorkload(options.workload)
            ? perfbench::runRemote(options)
            : perfbench::runLocal(options);
    perfbench::removeTree(options.workDir);

    const perfbench::MetricList &metrics =
        options.trace ? outcome.perLayer : outcome.endToEnd;
    perfbench::Json report = outcome.report;
    report.text("workload", options.workload)
        .integer("seed", options.seed)
        .boolean("trace", options.trace)
        .object("metrics", perfbench::metricsJson(metrics));
    std::printf("%s\n", report.dump().c_str());

    perfbench::Json result;
    result.boolean("correct", outcome.correct)
        .integer("attempted", outcome.attempted)
        .integer("failed", outcome.failed)
        .object("metrics", perfbench::metricsJson(metrics));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return outcome.correct ? 0 : 1;
}
