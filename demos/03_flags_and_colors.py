"""Flags, the fundamental domain, and colours.

A flag is an incident (vertex, edge, face) triple.  The palette Delta
holds one flag per orbit of the root neighbourhood's symmetries; every
flag anywhere (in the tessellation or in a locally isomorphic target)
gets the colour of its orbit representative.  For a regular tessellation
the symmetries are flag-transitive, so a single colour suffices; the
machinery discovers this, it never assumes it.
"""

from coverkit import (
    Coloring,
    Host,
    QuotientSpec,
    color,
    color_in_h,
    flags_at,
    generate,
    i_fundamental_domain,
    make_quotient,
    stabilize_n,
)

patch = generate(4, 4, 8)
flags = flags_at(Host(patch), patch.root)
print("flags at the root:", len(flags), "(4 edges x 2 faces)")

# The orbit partition stabilises once the observed symmetry group stops
# shrinking; stabilize_n certifies two consecutive equal levels.
n = stabilize_n(patch)
delta = i_fundamental_domain(patch, n)
print("stabilisation level n =", n, " palette size |Delta| =", len(delta))

# Every flag of the patch gets the single colour.  The colouring context
# holds the patch's own host and the isomorphism memo of this run.
c = Coloring(patch, delta)
v = 17
print("colours at vertex 17:", sorted({color(c, f) for f in flags_at(c.g, v)}))

# Colours pull back to any locally isomorphic target the same way; the
# target's faces are inferred, with cycle length bound l_max = 4.
torus = Host(make_quotient(QuotientSpec("torus", 5, 7)).graph, 4)
tf = flags_at(torus, 11)
print("colours of torus flags at 11:", sorted({color_in_h(c, torus, f) for f in tf}))

# The same run on the honeycomb.
honey = generate(6, 3, 8)
n63 = stabilize_n(honey)
print("\n{6,3}: n =", n63, " |Delta| =", len(i_fundamental_domain(honey, n63)))
