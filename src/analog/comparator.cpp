#include "analog/comparator.hpp"

namespace gecko::analog {

Comparator::Comparator(double referenceV, double hysteresisV,
                       bool initialHigh)
    : referenceV_(referenceV), halfBand_(hysteresisV / 2.0),
      high_(initialHigh)
{
}

}  // namespace gecko::analog
