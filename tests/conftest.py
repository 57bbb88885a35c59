import pytest

from wingtail.heston import HestonParams
from wingtail.kou import KouJumpParams, risk_neutral_drift
from wingtail.mixed import MixedModel
from wingtail.nig import NIGParams, nig_no_arb_drift
from wingtail.numerics import RngStream
from wingtail import oracles


REF_HESTON = dict(a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0)


@pytest.fixture(scope="session")
def ref_heston():
    return HestonParams(mu=0.0, **REF_HESTON)


@pytest.fixture(scope="session")
def ref_kou():
    return KouJumpParams(lam=1.0, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=1.0)


@pytest.fixture(scope="session")
def kou_model(ref_kou):
    mu = risk_neutral_drift(ref_kou)
    return MixedModel(heston=HestonParams(mu=mu, **REF_HESTON), jumps=ref_kou)


@pytest.fixture(scope="session")
def nig_model():
    j = NIGParams(alpha=2.0, delta=1.0, t=1.0)
    return MixedModel(heston=HestonParams(mu=nig_no_arb_drift(j), **REF_HESTON), jumps=j)


@pytest.fixture(scope="session")
def pure_model(ref_heston):
    return MixedModel(heston=ref_heston, jumps=None)


@pytest.fixture(scope="session")
def jump_moment():
    """moment(law, s): the moment of order s of a jump law by `MixedModel.jump_moment`,
    on the reference Heston part at the law's horizon."""
    def moment(law, s):
        heston = HestonParams(mu=0.0, **dict(REF_HESTON, t=law.t))
        return MixedModel(heston=heston, jumps=law).jump_moment(s)

    return moment


@pytest.fixture(scope="session")
def kou_sample(kou_model):
    """One shared Monte Carlo sample of the reference mixed model."""
    return oracles.simulate_paths(kou_model, 200_000, 200, RngStream(42))
