"""Format-conversion pass counts of the sparse libraries PIT is compared with.

Classic sparse libraries pay a *format conversion* before they can compute:
cuSPARSE wants CSR, Sputnik wants CSR with row swizzles, Triton's block-sparse
kernels want a block index (a BCSR-like layout).  The paper's Figure 3b shows
this conversion dominating at runtime, and Figure 18 compares PIT's index
construction against these converters.

A conversion is priced as this many streaming passes over the dense input
(plus its index writes and launches): cuSPARSE's and Sputnik's
``convert_us``, and PyTorch-S converting activation data to Triton's block
format.  The cuSPARSE count lands PIT's detector 3.6-4.7x faster at 1x1
granularity, the paper's Figure 18 range.
"""

#: cuSPARSE's dense->CSR runs an nnz-count pass, a prefix scan, and a fill
#: pass, with poor bandwidth utilization on the scattered index writes and a
#: device synchronization between stages.  Effective slowdown vs one clean
#: streaming pass over the dense input:
CUSPARSE_CONVERT_PASSES = 4.2

#: Triton's block-sparse layout builder reduces the mask per block on the
#: host-visible path, then builds the lookup table; it makes several strided
#: passes and materializes intermediate block maps.
TRITON_CONVERT_PASSES = 14.0

#: Sputnik reuses CSR but adds a row-sorting pass for load balancing.
SPUTNIK_CONVERT_PASSES = 5.0
