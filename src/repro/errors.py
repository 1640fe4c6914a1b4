"""Exception hierarchy for the Nectar reproduction."""

from __future__ import annotations

__all__ = [
    "AddressError",
    "BufError",
    "CABError",
    "ConfigurationError",
    "HeapExhausted",
    "HubError",
    "MailboxError",
    "MemoryFault",
    "NectarError",
    "ProtocolError",
    "RouteError",
    "SyncError",
    "WiringError",
]


class NectarError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(NectarError):
    """Invalid system construction (bad topology, bad parameters)."""


class MemoryFault(NectarError):
    """An access outside a memory region."""


class HeapExhausted(NectarError):
    """The CAB buffer heap cannot satisfy an allocation."""


class MailboxError(NectarError):
    """Misuse of the mailbox interface."""


class SyncError(NectarError):
    """Misuse of the sync (lightweight synchronization) interface."""


class CABError(NectarError):
    """CAB board-level error."""


class HubError(NectarError):
    """HUB crossbar error (bad port, conflicting connection)."""


class RouteError(NectarError):
    """No route, or a malformed source route."""


class WiringError(HubError, RouteError):
    """A HUB port out of range, wired twice, or looked up unwired.

    Both a :class:`HubError` (a bad port) and a :class:`RouteError` (a
    wrong wiring graph), so a caller that catches either catches it.
    """


class AddressError(NectarError):
    """Unknown Nectar node or mailbox address."""


class ProtocolError(NectarError):
    """Malformed packet or protocol state violation."""


class BufError(NectarError):
    """Misuse of the zero-copy buffer plane (repro.buf).

    Raised for view access after the backing :class:`~repro.buf.PacketBuffer`
    was released, ``prepend`` beyond the reserved headroom, out-of-window
    slicing, and refcount over-release.
    """
