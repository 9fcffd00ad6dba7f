"""Exception types and resource caps shared across the package."""


class SizeLimitError(ValueError):
    """A combinatorial or table-size guard was exceeded."""


# Resource caps. Each guard raises SizeLimitError with its cap in the message.
# The table guard runs before its table is allocated.
#
# Largest dense kernel table, in entries (16 MB of complex128).
MAX_TABLE_ENTRIES = 10**6
# Exhaustive set-partition listing (enumerate_partitions):
# enumerate_partitions(12) lists Bell(12) = 4,213,597 partitions in about 17 s
# and 1.1 GiB peak RSS on a 2-vCPU VM; the count grows ~5x per element.
MAX_PARTITION_GROUND = 12
# The tamedness scan costs about 35 us per meet-zero partition for one kernel
# on 3 bins. Its worst shape with m*q <= 10 is (m, q) = (10, 1): 115,975
# partitions in about 4 s and 35 MiB peak RSS on a 2-vCPU VM. At m*q = 11 the
# count reaches 678,570, and (6, 2) has 1,515,903.
MAX_TAMED_GROUND = 10
# The pruned class generator keeps R_16 = 227,475 partitions at (m, q) = (16, 1)
# in about 3 s and 100 MiB.
MAX_NC_GROUND = 16
# enumerate_nc(14) lists Catalan(14) ~ 2.7e6 partitions in about 12 s and 811 MiB
# peak RSS on a 2-vCPU VM, most of it the output list; the count grows ~4x per element.
MAX_NC_ENUM_GROUND = 14
# Largest order of the Riordan counts, and so of the free Poisson moment oracle.
MAX_RIORDAN_INDEX = 14


class GridMismatchError(ValueError):
    """Operands live on incompatible grids (bins, cell width, or arity)."""


class GroundSetMismatchError(ValueError):
    """A partition does not cover the expected ground set."""


class MirrorSymmetryError(ValueError):
    """An operation that requires a mirror-symmetric kernel got an asymmetric one."""


class IdentityMismatchError(ArithmeticError):
    """Two independently computed sides of an exact identity disagree."""
