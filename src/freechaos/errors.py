"""Exception types, resource caps, and the size refusals shared across the package."""


class SizeLimitError(ValueError):
    """A combinatorial or table-size guard was exceeded."""


# Resource caps. Every size refusal is one of the three rules below, so each
# SizeLimitError names its cap. The table rule runs before its table is
# allocated. Times and peak RSS are of the worst admitted shape, run alone in a
# child process on a 2-vCPU VM.
#
# Largest dense kernel table, in entries (16 MB of complex128). `moments --m 4
# --bins 1000 --method all` builds such tables (x times x at q = 1) in 0.34 s
# and 61 MiB.
MAX_TABLE_ENTRIES = 10**6
# Most axes of a table: NumPy allows no more, and refusing more first keeps a
# huge arity out of the entry count's power. Only bins = 1 reaches it; from
# bins = 2 on, the entry cap refuses 20 axes.
MAX_TABLE_AXES = 64
# Exhaustive set-partition listing (enumerate_partitions):
# enumerate_partitions(12) lists Bell(12) = 4,213,597 partitions in 19.5 s and
# 1.1 GiB; the count grows ~5x per element.
MAX_PARTITION_GROUND = 12
# The tamedness scan costs about 30 us per meet-zero partition for one kernel
# on 3 bins. Its worst shape with m*q <= 10 is (m, q) = (10, 1): 115,975
# partitions in 3.4 s and 30 MiB. At m*q = 11 the count reaches 678,570, and
# (6, 2) has 1,515,903.
MAX_TAMED_GROUND = 10
# The pruned class generator keeps R_16 = 227,475 partitions at (m, q) = (16, 1)
# in 2.8 s and 102 MiB; the classes themselves hold 66 MiB under tracemalloc.
# A cold moment_diagram at (16, 1) takes 3.6 s and 104 MiB. The Riordan counts
# and the free Poisson moment oracle share this cap, since riordan(m).total
# counts the classes nc0_classes(m, 1) keeps: `transfer --M 16 --bins 2` takes
# 5.9 s and 107 MiB.
MAX_NC_GROUND = 16
# enumerate_nc(14) lists Catalan(14) ~ 2.7e6 partitions in 10.8 s and 791 MiB,
# most of it the output list; the count grows ~4x per element.
MAX_NC_ENUM_GROUND = 14
# Steps of a convergence series (convergence_experiment). Its slowest q = 1
# step is at bins = 1000 and moment order 16, about 0.25 s once the diagram
# tables are built, and `converge --family indicator --bins 1000 --M 16
# --steps 50` takes 18.6 s and 122 MiB. This cap does not bound the q >= 2
# hyperdiagonal family, whose step n has n bins: at q = 2 and moment order 8
# its diagram einsums take 2 s a step at n = 8 and 157 s at n = 16.
MAX_CONVERGE_STEPS = 50


def require_size(what: str, name: str, value: int, cap: int) -> None:
    """Refuse a size below 1 with ValueError and one past cap with SizeLimitError."""
    if not 1 <= value <= cap:
        error = ValueError if value < 1 else SizeLimitError
        raise error(f"{what} needs 1 <= {name} <= {cap}, got {value}")


def require_ground(what: str, n: int, cap: int) -> None:
    """Refuse a ground set [m*q] of n elements past cap."""
    if n > cap:
        raise SizeLimitError(f"{what} needs m*q <= {cap}, got {n}")


def require_table_size(bins: int, arity: int) -> None:
    """Refuse a table of shape (bins,)*arity past the caps, before it is allocated."""
    # every table is sized here before it is allocated, so a bins < 1 is refused here too
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if arity > MAX_TABLE_AXES:
        raise SizeLimitError(f"table would have {arity} axes, cap is {MAX_TABLE_AXES}")
    if arity > 0 and bins**arity > MAX_TABLE_ENTRIES:
        raise SizeLimitError(f"table would hold {bins ** arity} entries, cap is {MAX_TABLE_ENTRIES}")


class GridMismatchError(ValueError):
    """Operands live on incompatible grids (bins, cell width, or arity)."""


class GroundSetMismatchError(ValueError):
    """A partition does not cover the expected ground set."""


class MirrorSymmetryError(ValueError):
    """An operation that requires a mirror-symmetric kernel got an asymmetric one."""


class IdentityMismatchError(ArithmeticError):
    """Two independently computed sides of an exact identity disagree."""
