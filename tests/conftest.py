"""Shared fixtures: the small named corpus, the two Cayley graphs and suite contexts on them."""

from __future__ import annotations

import pytest

from iharalab.graphs import certify_regular, named_graph
from iharalab.lps import build_lps
from iharalab.spectral import eigendecompose
from iharalab.suite import SuiteContext

NAMED = ("K3", "K4", "K33", "PETERSEN", "CUBE")


@pytest.fixture(scope="session")
def corpus():
    """name -> (graph, certificate) for the five named graphs."""
    out = {}
    for name in NAMED:
        g = named_graph(name)
        out[name] = (g, certify_regular(g))
    return out


@pytest.fixture(scope="session")
def spectra(corpus):
    """name -> SpectralData for the named corpus."""
    return {name: eigendecompose(g, cert) for name, (g, cert) in corpus.items()}


@pytest.fixture(scope="session")
def contexts(corpus):
    """name -> SuiteContext for the named corpus: full-matrix route, dense spectrum."""
    return {name: SuiteContext(g) for name, (g, _) in corpus.items()}


@pytest.fixture(scope="session")
def x135():
    """(graph, params, cert, sd) for the 14-regular bipartite Cayley graph."""
    g, params = build_lps(13, 5)
    cert = certify_regular(g)
    sd = eigendecompose(g, cert)
    return g, params, cert, sd


@pytest.fixture(scope="session")
def x513():
    """(graph, params, cert) for the 6-regular graph on 2184 vertices.

    No eigendecomposition here; tests that need the spectrum compute it
    themselves so its cost is attributed to them.
    """
    g, params = build_lps(5, 13)
    return g, params, certify_regular(g)


@pytest.fixture(scope="session")
def x135_ctx(x135):
    """A SuiteContext on x135's graph and parameters: certified, so row route and quotient spectrum."""
    g, params, _, _ = x135
    return SuiteContext(g, params)
