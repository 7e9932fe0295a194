/**
 * @file
 * Figure 14: DAPPER-H vs BlockHammer on benign applications across
 * N_RH.
 *
 * Paper reference: BlockHammer degrades sharply at ultra-low thresholds
 * (7.5% at 1K, 25% at 500, 46.4% at 250, 66% at 125) from false-positive
 * throttling, while DAPPER-H stays below ~4%.
 *
 * Known modelling deviation: the controller models a BlockHammer
 * throttle as whole-bank unavailability (MemController::issue sets the
 * bank's actReady to the throttle deadline), so one blacklisted row
 * stalls every row of its bank and the BlockHammer columns here come
 * out well below the paper's at low N_RH. See src/rh/README.md.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 14: BlockHammer comparison (benign)",
                makeConfig(opt));

    const auto variants = filterCells(opt,
                                      {
                                          {"", "blockhammer", "", {}},
                                          {"", "dapper-h", "", {}},
                                          {"", "dapper-h-drfmsb", "", {}},
                                      },
                                      argv[0], CellFilterSpec::pinAttack("none"));
    const std::vector<int> thresholds = {125, 250, 500, 1000, 2000, 4000};
    const auto workloads =
        opt.full ? population(opt) : std::vector<std::string>{
                                         "429.mcf", "510.parest", "ycsb-a"};

    std::printf("%-8s", "NRH");
    for (const ScenarioCell &v : variants)
        std::printf(" %18s",
                    TrackerRegistry::instance()
                        .at(v.tracker)
                        .displayName.c_str());
    std::printf("\n");

    const std::size_t nVar = variants.size();
    const std::size_t perRow = nVar * workloads.size();
    ScenarioGrid grid(baseScenario(opt).baseline(Baseline::NoAttack));
    grid.nRH(thresholds).cells(variants).workloads(workloads);
    Runner runner(opt.jobs);
    const ResultTable table = runner.run(grid);
    const auto norms = table.normalizedValues();

    for (std::size_t t = 0; t < thresholds.size(); ++t) {
        std::printf("%-8d", thresholds[t]);
        for (std::size_t v = 0; v < nVar; ++v)
            std::printf(" %18.4f",
                        geomeanSlice(norms,
                                     t * perRow + v * workloads.size(),
                                     workloads.size()));
        std::printf("\n");
    }
    std::printf("\n(paper: BlockHammer 0.34 at NRH=125, 0.75 at 500; "
                "DAPPER-H >= 0.96 everywhere)\n");
    finish(opt, "fig14_blockhammer", table);
    return 0;
}
