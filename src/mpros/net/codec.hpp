#pragma once
// The wire protocol encodes with the project-wide codec
// (mpros/common/codec.hpp); these names keep net::Writer and
// net::TryReader spelled the way the protocol code spells them.

#include "mpros/common/codec.hpp"

namespace mpros::net {

using mpros::TryReader;
using mpros::Writer;

}  // namespace mpros::net
