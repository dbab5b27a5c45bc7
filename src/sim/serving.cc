#include "sim/serving.h"

#include <utility>

namespace rome
{

namespace
{

NodeConfig
oneCube(const ServingConfig& cfg)
{
    NodeConfig node;
    node.makeController = cfg.makeController;
    node.makeSystemSource = cfg.makeSystemSource;
    node.numCubes = 1;
    node.channelsPerCube = cfg.numChannels;
    node.stripeBytes = cfg.stripeBytes;
    node.arrivalModel = cfg.arrivalModel;
    node.arrivalSeed = cfg.arrivalSeed;
    node.threads = cfg.threads;
    node.link = LinkConfig::idealLink();
    return node;
}

} // namespace

ServingDriver::ServingDriver(const ServingConfig& cfg) : node_(oneCube(cfg))
{
}

ServingResult
ServingDriver::run(double offered_rps) const
{
    NodeResult node = node_.run(offered_rps);
    ServingResult res;
    res.offeredRps = node.offeredRps;
    res.achievedRps = node.achievedRps;
    res.finishedAt = node.finishedAt;
    res.aggregate = std::move(node.aggregate);
    res.perChannel = std::move(node.perCube.front().perChannel);
    return res;
}

} // namespace rome
