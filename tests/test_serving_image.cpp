// The TableImage container (serving/table_image.h) and the table dump /
// load / mmap paths built on it: save -> load round-trips are bit
// identical for both tables, mapped views serve the same bytes zero-copy,
// corruption is caught by the payload checksum, TableIoError carries a
// machine-checkable (op, reason, path), and the retired pre-image formats
// are rejected.
#include "serving/table_image.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "acasx/joint_solver.h"
#include "acasx/logic_table.h"
#include "acasx/offline_solver.h"
#include "serving/table_codec.h"
#include "util/expect.h"

namespace cav::serving {
namespace {

using acasx::AcasXuConfig;
using acasx::JointConfig;
using acasx::JointLogicTable;
using acasx::LogicTable;

acasx::StateSpaceConfig tiny_space() {
  acasx::StateSpaceConfig s;
  s.h_ft = UniformAxis(-800.0, 800.0, 17);
  s.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  s.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  s.tau_max = 16;
  return s;
}

class ServingImageTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new LogicTable(acasx::solve_logic_table(AcasXuConfig::coarse()));
    JointConfig jc;
    jc.space = tiny_space();
    joint_ = new JointLogicTable(acasx::solve_joint_table(jc));
  }
  static void TearDownTestSuite() {
    delete pair_;
    delete joint_;
    pair_ = nullptr;
    joint_ = nullptr;
  }
  static std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

  static LogicTable* pair_;
  static JointLogicTable* joint_;
};

LogicTable* ServingImageTest::pair_ = nullptr;
JointLogicTable* ServingImageTest::joint_ = nullptr;

TEST_F(ServingImageTest, PairwiseRoundTripIsBitIdentical) {
  const std::string path = temp_path("serving_pair_rt.img");
  pair_->save(path);
  const LogicTable loaded = LogicTable::load(path);
  ASSERT_EQ(loaded.raw().size(), pair_->raw().size());
  EXPECT_EQ(loaded.raw(), pair_->raw());
  EXPECT_EQ(loaded.config().space.tau_max, pair_->config().space.tau_max);
  EXPECT_DOUBLE_EQ(loaded.config().costs.nmac_cost, pair_->config().costs.nmac_cost);
  EXPECT_DOUBLE_EQ(loaded.config().space.h_ft.lo(), pair_->config().space.h_ft.lo());
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, PairwiseMappedViewServesIdenticalBytes) {
  const std::string path = temp_path("serving_pair_map.img");
  pair_->save(path);
  const LogicTable mapped = LogicTable::open_mapped(path);
  EXPECT_TRUE(mapped.is_mapped());
  ASSERT_EQ(mapped.num_entries(), pair_->num_entries());
  const float* v = mapped.values();
  for (std::size_t i = 0; i < pair_->raw().size(); ++i) {
    ASSERT_EQ(v[i], pair_->raw()[i]) << "entry " << i;
  }
  // Mapped views are read-only: the owning-vector accessor must refuse.
  EXPECT_THROW(mapped.raw(), ContractViolation);
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, JointRoundTripIsBitIdentical) {
  const std::string path = temp_path("serving_joint_rt.img");
  joint_->save(path);
  const JointLogicTable loaded = JointLogicTable::load(path);
  ASSERT_EQ(loaded.raw().size(), joint_->raw().size());
  EXPECT_EQ(loaded.raw(), joint_->raw());
  EXPECT_EQ(loaded.config().secondary.num_delta_bins, joint_->config().secondary.num_delta_bins);
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, JointMappedViewServesIdenticalBytes) {
  const std::string path = temp_path("serving_joint_map.img");
  joint_->save(path);
  const JointLogicTable mapped = JointLogicTable::open_mapped(path);
  EXPECT_TRUE(mapped.is_mapped());
  ASSERT_EQ(mapped.num_entries(), joint_->num_entries());
  const float* v = mapped.values();
  for (std::size_t i = 0; i < joint_->raw().size(); i += 97) {
    ASSERT_EQ(v[i], joint_->raw()[i]) << "entry " << i;
  }
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, ChecksumCatchesPayloadCorruption) {
  const std::string path = temp_path("serving_pair_corrupt.img");
  pair_->save(path);
  {
    // Flip one byte deep in the value payload.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-64, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-64, std::ios::end);
    byte = static_cast<char>(byte ^ 0x5A);
    f.write(&byte, 1);
  }
  try {
    TableImage::open(path);
    FAIL() << "corrupted image must not open";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.reason(), "checksum mismatch");
    EXPECT_EQ(e.path(), path);
  }
  // Trusting callers can skip verification and still map the file.
  TableImage::OpenOptions trusting;
  trusting.verify_checksum = false;
  EXPECT_NO_THROW(TableImage::open(path, trusting));
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, TableIoErrorCarriesOpReasonPath) {
  const std::string missing = "/definitely/missing/table.img";
  try {
    TableImage::open(missing);
    FAIL() << "missing file must not open";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.op(), "TableImage::open");
    EXPECT_EQ(e.reason(), "cannot open");
    EXPECT_EQ(e.path(), missing);
    // And it still is a runtime_error, so pre-serving catch sites hold.
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
  EXPECT_THROW(LogicTable::load(missing), std::runtime_error);
}

TEST_F(ServingImageTest, WrongKindIsRejected) {
  const std::string path = temp_path("serving_kind_mismatch.img");
  joint_->save(path);
  try {
    LogicTable::load(path);
    FAIL() << "joint image must not load as a pairwise table";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.reason(), "wrong table kind");
  }
  EXPECT_THROW(LogicTable::open_mapped(path), TableIoError);
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, QuantizedImagesLoadViaDequantization) {
  for (const Quantization quant : {Quantization::kFloat16, Quantization::kInt8}) {
    const std::string path = temp_path("serving_pair_quant.img");
    pair_->save(path, quant);
    // open_mapped promises float bytes, so quantized images must refuse...
    EXPECT_THROW(LogicTable::open_mapped(path), TableIoError);
    // ...while load() dequantizes into an owning table of the same shape.
    const LogicTable loaded = LogicTable::load(path);
    ASSERT_EQ(loaded.raw().size(), pair_->raw().size());
    double worst = 0.0;
    double scale = 1.0;
    for (std::size_t i = 0; i < pair_->raw().size(); ++i) {
      worst = std::max(worst, std::abs(static_cast<double>(loaded.raw()[i]) -
                                       static_cast<double>(pair_->raw()[i])));
      scale = std::max(scale, std::abs(static_cast<double>(pair_->raw()[i])));
    }
    // Coarse relative-error sanity; the policy-level impact is pinned in
    // test_serving_server.cpp.
    EXPECT_LT(worst / scale, quant == Quantization::kFloat16 ? 1e-3 : 1e-2);
    std::remove(path.c_str());
  }
}

/// Write a file in one of the retired pre-image formats: its magic, then
/// the raw value payload — large enough to clear every size check, so the
/// loaders must reject it on the magic alone.
void write_retired_format(const std::string& path, std::uint32_t magic,
                          const std::vector<float>& values) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
}

template <typename Load>
void expect_bad_magic(const Load& load, const std::string& path) {
  try {
    load(path);
    FAIL() << "a retired format must not load";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.reason(), "bad magic");
    EXPECT_EQ(e.path(), path);
  }
}

TEST_F(ServingImageTest, RetiredFormatsAreRejected) {
  const std::string pair_path = temp_path("serving_pair_acx1.bin");
  write_retired_format(pair_path, 0x41435831, pair_->raw());  // "ACX1"
  expect_bad_magic([](const std::string& p) { return LogicTable::load(p); }, pair_path);
  expect_bad_magic([](const std::string& p) { return LogicTable::open_mapped(p); }, pair_path);
  std::remove(pair_path.c_str());

  const std::string joint_path = temp_path("serving_joint_jtx1.bin");
  write_retired_format(joint_path, 0x4a545831, joint_->raw());  // "JTX1"
  expect_bad_magic([](const std::string& p) { return JointLogicTable::load(p); }, joint_path);
  std::remove(joint_path.c_str());
}

TEST_F(ServingImageTest, SlabDirectoryIsTyped) {
  const std::string path = temp_path("serving_pair_slabs.img");
  pair_->save(path);
  const TableImage image = TableImage::open(path);
  EXPECT_EQ(image.kind_name(), kKindPairwise);
  EXPECT_TRUE(image.has_slab(kSlabValues));
  EXPECT_TRUE(image.has_slab(kSlabMetaF64));
  EXPECT_EQ(image.slab_dtype(kSlabValues), SlabType::kF32);
  // A typed view with the wrong element type must refuse.
  EXPECT_THROW(image.slab_as<double>(kSlabValues), TableIoError);
  EXPECT_THROW(image.slab(std::string_view("no_such_slab")), TableIoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cav::serving
