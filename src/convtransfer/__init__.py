"""Cross-domain transfer learning with convolutional attribute embeddings.

A numpy implementation of a multi-branch convolutional model for
label-scarce target domains: a shared (domain-independent) encoder whose
per-domain means are matched, per-domain encoders, and an attribute
embedding branch tied to binary side information through a linear map.
Training minimizes a five-term joint objective by fixed-step sub-gradient
descent.
"""
