// Dataset export: generate a study dataset and persist it as CSV files
// (user records for both vantage-point populations, plus every market's
// plan catalog) for downstream analysis in R / pandas / spreadsheets.
//
// Usage: dataset_export [output_dir]   (default ./bblab_export)
#include <filesystem>
#include <fstream>
#include <iostream>

#include "dataset/csv.h"
#include "dataset/generator.h"

int main(int argc, char** argv) {
  using namespace bblab;
  const std::filesystem::path dir = argc > 1 ? argv[1] : "bblab_export";
  std::filesystem::create_directories(dir);

  dataset::StudyConfig config;
  config.seed = 7;
  config.population_scale = 0.08;
  config.window_days = 1.0;
  std::cout << "generating study dataset...\n";
  const auto ds = dataset::StudyGenerator{market::World::builtin(), config}.generate();

  {
    std::ofstream out{dir / "dasu_users.csv"};
    dataset::write_user_records(out, ds.dasu);
  }
  {
    std::ofstream out{dir / "fcc_users.csv"};
    dataset::write_user_records(out, ds.fcc);
  }
  {
    std::vector<market::ServicePlan> all_plans;
    for (const auto& [code, snap] : ds.markets) {
      all_plans.insert(all_plans.end(), snap.catalog.plans().begin(),
                       snap.catalog.plans().end());
    }
    std::ofstream out{dir / "plans.csv"};
    dataset::write_plans(out, all_plans);
  }

  std::cout << "wrote " << ds.dasu.size() << " Dasu records, " << ds.fcc.size()
            << " FCC records, and the plan survey to " << dir << "/\n";

  // Round-trip check: read one file back and confirm the count.
  std::ifstream in{dir / "dasu_users.csv"};
  const std::string text{std::istreambuf_iterator<char>{in},
                         std::istreambuf_iterator<char>{}};
  const auto back = dataset::read_user_records_lenient(text);
  std::cout << "round-trip verified: " << back.records.size() << " records parsed back\n";
  return back.records.size() == ds.dasu.size() && back.quarantine.empty() ? 0 : 1;
}
