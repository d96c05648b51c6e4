// Tests for the error-handling substrate and failure injection across the
// library: user-facing precondition violations must throw dgnn::Error with
// actionable messages, and resource exhaustion must surface cleanly.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include <limits>

#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "serve/server.hpp"
#include "shard/sharded_server.hpp"
#include "sim/pcie.hpp"
#include "support/check.hpp"

namespace dgnn {
namespace {

TEST(CheckTest, PassingConditionIsSilent)
{
    EXPECT_NO_THROW(DGNN_CHECK(1 + 1 == 2, "math works"));
}

TEST(CheckTest, FailingConditionThrowsErrorWithMessage)
{
    try {
        DGNN_CHECK(false, "widget ", 42, " exploded");
        FAIL() << "DGNN_CHECK did not throw";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("widget 42 exploded"), std::string::npos);
        EXPECT_NE(what.find("check failed"), std::string::npos);
        // Location info for debugging.
        EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    }
}

TEST(CheckTest, ErrorIsARuntimeError)
{
    // Callers may catch std::runtime_error generically.
    EXPECT_THROW(DGNN_CHECK(false, "generic"), std::runtime_error);
}

TEST(FailureInjectionTest, DeviceOutOfMemorySurfacesAsError)
{
    // A GPU with a tiny memory capacity must reject model working sets with
    // a clean Error, not UB.
    sim::RuntimeConfig config;
    config.mode = sim::ExecMode::kHybrid;
    config.gpu.memory_bytes = 1024;  // 1 KiB GPU
    sim::Runtime rt(config);

    data::InteractionSpec spec;
    spec.num_users = 30;
    spec.num_items = 20;
    spec.num_events = 100;
    spec.edge_feature_dim = 16;
    const auto ds = data::GenerateInteractions(spec);
    models::Tgn model(ds, models::TgnConfig{16, 16, 2, 11});
    models::RunConfig run;
    run.batch_size = 16;
    run.num_neighbors = 4;
    EXPECT_THROW(model.RunInference(rt, run), Error);
}

TEST(FailureInjectionTest, InvalidModelConfigRejected)
{
    data::InteractionSpec spec;
    spec.num_users = 10;
    spec.num_items = 5;
    spec.num_events = 20;
    spec.edge_feature_dim = 4;
    const auto ds = data::GenerateInteractions(spec);
    // Zero attention layers is a configuration error, caught at build time.
    EXPECT_THROW(models::Tgat(ds, models::TgatConfig{16, 2, 0, 4, 7}),
                 Error);
    // Attention head count must divide the embedding dimension.
    EXPECT_THROW(models::Tgat(ds, models::TgatConfig{10, 4, 1, 4, 7}),
                 Error);
}

TEST(FailureInjectionTest, BatchSizeZeroRejected)
{
    data::InteractionSpec spec;
    spec.num_users = 10;
    spec.num_items = 5;
    spec.num_events = 20;
    spec.edge_feature_dim = 4;
    const auto ds = data::GenerateInteractions(spec);
    models::Tgn model(ds, models::TgnConfig{8, 8, 2, 11});
    sim::Runtime rt = models::MakeRuntime(sim::ExecMode::kCpuOnly);
    models::RunConfig run;
    run.mode = sim::ExecMode::kCpuOnly;
    run.batch_size = 0;
    EXPECT_THROW(model.RunInference(rt, run), Error);
}

TEST(RunConfigValidationTest, RejectsNonsenseNamingTheField)
{
    struct Case {
        std::string field;
        std::function<void(models::RunConfig&)> corrupt;
    };
    const std::vector<Case> cases = {
        {"batch_size", [](models::RunConfig& r) { r.batch_size = 0; }},
        {"batch_size", [](models::RunConfig& r) { r.batch_size = -1; }},
        {"num_neighbors", [](models::RunConfig& r) { r.num_neighbors = -1; }},
        {"max_events", [](models::RunConfig& r) { r.max_events = -1; }},
        {"numeric_cap", [](models::RunConfig& r) { r.numeric_cap = -1; }},
        {"cache.capacity_bytes",
         [](models::RunConfig& r) { r.cache.capacity_bytes = -1; }},
        {"mode", [](models::RunConfig& r) { r.mode = sim::ExecMode::kHybrid; }},
    };
    const sim::Runtime rt = models::MakeRuntime(sim::ExecMode::kCpuOnly);
    for (const Case& c : cases) {
        models::RunConfig run;
        run.mode = sim::ExecMode::kCpuOnly;
        models::ValidateRunConfig(rt, run);  // the untouched config is valid
        c.corrupt(run);
        try {
            models::ValidateRunConfig(rt, run);
            ADD_FAILURE() << c.field << ": nonsense value accepted";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
                << "error does not name " << c.field << ": " << e.what();
        }
    }
}

/// Expects @p validate to throw a dgnn::Error whose message names @p field.
void
ExpectRejectedNaming(const std::string& field, const std::function<void()>& validate)
{
    try {
        validate();
        ADD_FAILURE() << field << ": nonsense value accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << "error does not name " << field << ": " << e.what();
    }
}

TEST(ServingOptionsValidationTest, RejectsNonsenseNamingTheField)
{
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    struct Case {
        std::string field;
        std::function<void(shard::ShardedOptions&)> corrupt;
    };
    const std::vector<Case> cases = {
        {"interconnect.bandwidth_gbps",
         [](shard::ShardedOptions& o) { o.interconnect.bandwidth_gbps = 0.0; }},
        {"interconnect.bandwidth_gbps",
         [](shard::ShardedOptions& o) { o.interconnect.bandwidth_gbps = -12.0; }},
        {"interconnect.bandwidth_gbps",
         [](shard::ShardedOptions& o) { o.interconnect.bandwidth_gbps = kNan; }},
        {"interconnect.bandwidth_gbps",
         [](shard::ShardedOptions& o) { o.interconnect.bandwidth_gbps = kInf; }},
        {"interconnect.latency_us",
         [](shard::ShardedOptions& o) { o.interconnect.latency_us = -1.0; }},
        {"interconnect.latency_us",
         [](shard::ShardedOptions& o) { o.interconnect.latency_us = kNan; }},
        {"num_shards", [](shard::ShardedOptions& o) { o.num_shards = 0; }},
        {"num_shards", [](shard::ShardedOptions& o) { o.num_shards = -2; }},
        {"num_neighbors", [](shard::ShardedOptions& o) { o.num_neighbors = -1; }},
        {"cache_config.capacity_bytes",
         [](shard::ShardedOptions& o) { o.cache_config.capacity_bytes = -1; }},
    };
    // The untouched options are valid.
    shard::ValidateShardedOptions(shard::ShardedOptions{});
    for (const Case& c : cases) {
        shard::ShardedOptions options;
        c.corrupt(options);
        ExpectRejectedNaming(c.field,
                             [&] { shard::ValidateShardedOptions(options); });
    }
}

TEST(ServingOptionsValidationTest, UnpriceableLinkNeverReachesTheCostModel)
{
    // A zero-bandwidth link would price every transfer as infinite time.
    EXPECT_THROW(sim::PcieLink(0.0, 10.0), Error);
    EXPECT_THROW(sim::PcieLink(-1.0, 10.0), Error);
    EXPECT_THROW(sim::PcieLink(12.0, -1.0), Error);
    sim::RuntimeConfig config;
    config.pcie_bandwidth_gbps = 0.0;
    ExpectRejectedNaming("bandwidth_gbps", [&] { sim::Runtime runtime(config); });
    // A topology rejects the link when it is set, naming which one.
    const sim::LinkSpec dead{sim::LinkKind::kPcie, 0.0, 10.0};
    ExpectRejectedNaming("peer_link.bandwidth_gbps",
                         [&] { (void)sim::Topology::ScaleOut(2, dead); });
    sim::TopologyNode node;
    node.host_link.latency_us = -1.0;
    sim::Topology topology;
    ExpectRejectedNaming("host_link.latency_us", [&] { topology.AddNode(node); });
}

TEST(FormatDurationTest, UnitSelection)
{
    EXPECT_EQ(sim::FormatDuration(12.0), "12.00 us");
    EXPECT_EQ(sim::FormatDuration(12000.0), "12.00 ms");
    EXPECT_EQ(sim::FormatDuration(3.2e6), "3.20 s");
    EXPECT_EQ(sim::FormatDuration(-1500.0), "-1.50 ms");
}

}  // namespace
}  // namespace dgnn
