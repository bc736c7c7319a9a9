"""Golden references only tests call.

Independent, deliberately slow implementations the fast paths in
``src/`` are held to bit for bit.  They are test fixtures, not product
code: ``src/`` keeps one replay kernel plus one independent oracle (the
heap engine), and these never run outside the suite.
"""
