//! One module per registered experiment; each exposes
//! `units(&CampaignOptions) -> Vec<Unit>`. Networks come from the
//! campaign's shared topology cache and the work is scheduled on the
//! cross-experiment pool; run one with `irrnet-run <exp-id>`.

pub mod abl_adaptivity;
pub mod abl_hybrid;
pub mod abl_mdp;
pub mod abl_ordering;
pub mod ext_a;
pub mod ext_b;
pub mod ext_c;
pub mod ext_d;
pub mod ext_e;
pub mod ext_f;
pub mod ext_g;
pub mod ext_h;
pub mod ext_i;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod tab01;
