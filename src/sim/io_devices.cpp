#include "sim/io_devices.hpp"

#include "campaign/archive.hpp"

namespace gecko::sim {

IoHub::IoHub()
{
    for (auto& in : inputs_)
        in = std::make_shared<VectorInput>(std::vector<std::uint32_t>{0});
}

void
IoHub::setInput(int port, std::shared_ptr<InputDevice> dev)
{
    inputs_.at(static_cast<std::size_t>(port)) = std::move(dev);
}

InputDevice&
IoHub::input(int port)
{
    return *inputs_.at(static_cast<std::size_t>(port));
}

void
OutputSink::archiveState(campaign::Archive& ar)
{
    ar.section("output_sink");
    std::uint64_t n = values_.size();
    ar.u64(n);
    if (ar.saving()) {
        for (const auto& [index, value] : values_) {
            std::uint64_t k = index;
            std::uint32_t v = value;
            ar.u64(k);
            ar.u32(v);
        }
    } else {
        values_.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t k = 0;
            std::uint32_t v = 0;
            ar.u64(k);
            ar.u32(v);
            values_.emplace(k, v);
        }
    }
    ar.u64(conflicts_);
}

void
IoHub::archiveState(campaign::Archive& ar)
{
    ar.section("io_hub");
    for (auto& out : outputs_)
        out.archiveState(ar);
}

}  // namespace gecko::sim
