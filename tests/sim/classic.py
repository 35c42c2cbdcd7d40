"""The classic resource protocol, as an oracle for ``Resource.use``.

``use()`` collapses request → grant → timeout → release into one
grant-and-hold event.  This helper spells the chain out with the
public ``request()``/``release()`` idiom, so tests can hold the
collapsed form to the clock, trace and busy time of the long one.
"""


def classic_use(sim, resource, duration):
    """``yield from`` drop-in for ``resource.use(duration)``."""
    grant = yield resource.request()
    yield sim.timeout(duration)
    resource.release(grant)
