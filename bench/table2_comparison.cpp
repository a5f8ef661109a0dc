#include <iostream>

#include "bench_util.hpp"
#include "metrics/table.hpp"

/**
 * @file
 * Table II: comparison of prior EMI-mitigation work against GECKO.
 *
 * A qualitative table (reproduced from the paper's related-work
 * analysis): prior countermeasures target sensors, often need hardware,
 * and none provides power-failure recovery — the property intermittent
 * systems cannot live without.
 */

int
main(int argc, char** argv)
{
    using namespace gecko;
    bench::init(argc, argv);

    std::cout << "=== Table II: prior EMI countermeasures vs GECKO ===\n\n";

    metrics::TextTable table;
    table.header({"Prior work", "Target", "HW/SW", "Energy eff.",
                  "Power-failure recovery", "Intermittent applicable"});
    table.row({"Ghost Talk [44]", "Microphones", "Hybrid", "Low", "No",
               "N/A"});
    table.row({"Rocking Drones [77]", "Drones", "Hybrid", "Low", "No",
               "N/A"});
    table.row({"Trick or Heat [84]", "Incubators", "Hardware", "Low",
               "No", "N/A"});
    table.row({"SoK [90]", "Analog sensors", "Hybrid", "Low", "No",
               "N/A"});
    table.row({"Detection of EMI [100]", "Temp. sensors, microphones",
               "Software", "High", "No", "N/A"});
    table.row({"Transduction Shield [85]", "Pressure sensors, mics",
               "Hybrid", "Low", "No", "N/A"});
    table.row({"Detection of Weak EMI [28]", "IIoT sensors", "Software",
               "Low", "No", "N/A"});
    table.row({"GECKO (this repo)", "Voltage monitor", "Software", "High",
               "Yes", "Applicable"});
    table.print(std::cout);

    std::cout << "\nGECKO is the only software-only scheme that keeps "
                 "crash consistency across power failures, which is what "
                 "makes it deployable on intermittent systems.\n";
    return bench::writeBenchReport("table2_comparison");
}
