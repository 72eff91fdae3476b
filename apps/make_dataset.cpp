// make_dataset — generates benchmark alignments shaped like the paper's
// rRNA datasets (see DESIGN.md: the European SSU rRNA alignments are not
// redistributable, so simulated data of identical dimensions stands in).
//
//   make_dataset --taxa=50 --sites=1858 --seed=1 --out=data/t50.phy
//   make_dataset --taxa=150 --sites=1269 --fasta --out=data/t150.fa
//   (add --truth=data/t150_true.nwk to also write the generating tree)
#include <cstdio>
#include <fstream>

#include "fdml.hpp"

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  const int taxa = static_cast<int>(args.get_int("taxa", 50));
  const std::size_t sites = static_cast<std::size_t>(args.get_int("sites", 1858));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string out = args.get("out", "dataset.phy");

  Tree truth(3);
  const Alignment alignment = make_paper_like_dataset(taxa, sites, seed, &truth);
  if (args.get_bool("fasta")) {
    write_fasta_file(out, alignment);
  } else {
    write_phylip_file(out, alignment);
  }
  std::printf("wrote %s: %d taxa x %zu sites (seed %llu)\n", out.c_str(), taxa,
              sites, static_cast<unsigned long long>(seed));

  if (args.has("truth")) {
    std::ofstream truth_out(args.get("truth", ""));
    truth_out << to_newick(truth, alignment.names(), 10) << "\n";
    std::printf("wrote generating tree to %s\n", args.get("truth", "").c_str());
  }
  return 0;
}
