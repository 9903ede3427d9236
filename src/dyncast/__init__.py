"""Layered multicast scheduling on dynamic source channels.

A source spreads each application buffer over multicast groups whose
rates decay over time, so that a receiver subscribing to any fraction of
the total rate collects exactly the first fraction of every buffer.  On
top of that sit a FEC block carousel for file transfer and a
deterministic network simulator used for evaluation.
"""

from .channel import (
    BASE_GROUP,
    ChannelConfig,
    GroupEvent,
    QuiescentGroupError,
    TileBudget,
    TileId,
    active_groups,
    cumulative_rate,
    cumulative_rate_integral,
    group_rate,
    group_start_time,
    group_quiescence_time,
    interval_index,
    quiescence_events,
    tiles_in_window,
)
from .sequencer import (
    EmptyBufferError,
    InvalidRateError,
    NoCapacityError,
    SequenceRequest,
    SequencedPacket,
    infer_buffer_length,
    infer_buffer_time,
    sequence,
    tile_rank_order,
)
from .carousel import (
    CarouselPlan,
    LevelOutOfRangeError,
    TooManyLevelsError,
    blocks_for_buffer,
    build_plan,
    completion_time,
    first_duplicate,
)
from .fec import (
    CodecSpec,
    DecodeFailureError,
    FecError,
    FecSymbol,
    NeedMoreSymbols,
    NotDecodedError,
    SymbolDecoder,
    decode,
    encode,
)
from .wire import HEADER_SIZE, MalformedPacketError, PacketHeader, pack_packet, parse_packet
from .reassembly import IntegrityError, Reassembler, ReassemblyBuffer, serial_newer
from .netsim import GilbertLoss, ReceiverSpec, Scenario, load_scenario, parse_scenario, run
from .transfer import (
    CarouselSession,
    MetricUndefinedError,
    NeedMoreRunsError,
    SymbolReceiver,
    TransferCounters,
    TransferMetrics,
    TransferTimeoutError,
    compute_metrics,
    receive_file,
    report,
    send_file,
    simulate_transfer,
    spec_for_file,
)

__version__ = "0.1.0"
